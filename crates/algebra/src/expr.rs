//! Column-resolved scalar expressions — the expression language of FRA.
//!
//! After the paper's step 3 (schema inference + property push-down), every
//! property access in a query has been replaced by a *column reference*
//! into the operator's inferred schema. A [`ScalarExpr`] therefore
//! evaluates over a tuple's values alone, with **no access to the
//! graph** — which is precisely what makes operators incrementally
//! maintainable: they are pure functions of their input tuples.
//!
//! Evaluation follows Cypher's three-valued logic: comparisons involving
//! `null` (or incomparable types) yield `null`; boolean connectives use
//! Kleene logic; a filter keeps only tuples whose predicate is `true`.
//!
//! A type error is local to the operation that fails: it is `null` to
//! the expression around it, and only an expression failing at its root
//! reports the error — which every consumer reads as `null` (π, γ,
//! sorting) or as no row (σ, ω). So an error behaves as `null` wherever
//! it occurs, and the rewrites that reorder `AND`/`OR` operands, fuse
//! filters or substitute a projection into a predicate are exact for
//! failing expressions too.

use pgq_common::error::CommonError;
use pgq_common::path::PathValue;
use pgq_common::value::Value;
use pgq_parser::ast::{BinOp, UnOp};

/// A scalar expression over a fixed-width tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// Column reference (position in the input schema).
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Parameter slot of a one-shot statement: a constant the statement's
    /// caller supplies per execution ([`ScalarExpr::bind`]). It has no
    /// value of its own — evaluating it is an error, and an expression
    /// holding one never folds — and view plans never contain one.
    Param(usize),
    /// Binary operation (shares the parser's operator vocabulary).
    Binary(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Unary operation.
    Unary(UnOp, Box<ScalarExpr>),
    /// Built-in function call.
    Func {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<ScalarExpr>,
    },
    /// `IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// List construction.
    List(Vec<ScalarExpr>),
    /// Map construction.
    Map(Vec<(String, ScalarExpr)>),
    /// Subscript.
    Index(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Internal: zero-length path anchored at a node column.
    PathSingle(Box<ScalarExpr>),
    /// Internal: extend a path by one hop (path, edge, node).
    PathExtend(Box<ScalarExpr>, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Internal: concatenate two paths sharing a seam vertex.
    PathConcat(Box<ScalarExpr>, Box<ScalarExpr>),
}

impl ScalarExpr {
    /// Shorthand for a column reference.
    pub fn col(i: usize) -> ScalarExpr {
        ScalarExpr::Col(i)
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Lit(v.into())
    }

    /// Evaluate against the row `tuple` (a
    /// [`Tuple`](pgq_common::tuple::Tuple) derefs to one, and so does a
    /// row assembled in a scratch buffer).
    ///
    /// Comparison and logic never error (they produce `null` per Cypher
    /// 3VL); arithmetic and function type mismatches do.
    pub fn eval(&self, tuple: &[Value]) -> Result<Value, CommonError> {
        match self {
            ScalarExpr::Col(i) => Ok(tuple[*i].clone()),
            ScalarExpr::Lit(v) => Ok(v.clone()),
            ScalarExpr::Param(slot) => Err(CommonError::TypeMismatch {
                operation: format!("parameter slot {slot}"),
                detail: "not bound".into(),
            }),
            ScalarExpr::Binary(op, l, r) => eval_binary(*op, l, r, tuple),
            ScalarExpr::Unary(UnOp::Not, e) => Ok(not3(truth(&e.operand(tuple)))),
            ScalarExpr::Unary(UnOp::Neg, e) => e.operand(tuple).neg(),
            ScalarExpr::Func { name, args } => {
                let vals: Vec<Value> = args.iter().map(|a| a.operand(tuple)).collect();
                call_function(name, &vals)
            }
            ScalarExpr::IsNull { expr, negated } => {
                Ok(Value::Bool(expr.operand(tuple).is_null() != *negated))
            }
            ScalarExpr::List(items) => Ok(Value::list(
                items.iter().map(|e| e.operand(tuple)).collect(),
            )),
            ScalarExpr::Map(entries) => Ok(Value::map(
                entries
                    .iter()
                    .map(|(k, e)| (k.clone(), e.operand(tuple)))
                    .collect::<Vec<_>>(),
            )),
            ScalarExpr::Index(b, i) => index_value(&b.operand(tuple), &i.operand(tuple)),
            ScalarExpr::PathSingle(n) => match n.operand(tuple) {
                Value::Node(v) => Ok(Value::path(PathValue::single(v))),
                Value::Null => Ok(Value::Null),
                other => Err(type_err("path start", &other)),
            },
            ScalarExpr::PathExtend(p, e, n) => {
                match (p.operand(tuple), e.operand(tuple), n.operand(tuple)) {
                    (Value::Path(path), Value::Rel(edge), Value::Node(node)) => {
                        Ok(Value::path(path.extend(edge, node)))
                    }
                    (Value::Null, _, _) | (_, Value::Null, _) | (_, _, Value::Null) => {
                        Ok(Value::Null)
                    }
                    (p, _, _) => Err(type_err("path extension", &p)),
                }
            }
            ScalarExpr::PathConcat(a, b) => match (a.operand(tuple), b.operand(tuple)) {
                (Value::Path(x), Value::Path(y)) => {
                    let seam = x.target() == y.source();
                    // Concatenating with a zero-length path is the common
                    // case (every `p = (a)-[*]->(b)` plan splices the
                    // anchor's ε-path in front of the traversal) — share
                    // the existing Arc instead of rebuilding the path.
                    if seam && x.is_empty() {
                        Ok(Value::Path(y))
                    } else if seam && y.is_empty() {
                        Ok(Value::Path(x))
                    } else {
                        x.concat(&y)
                            .map(Value::path)
                            .ok_or_else(|| CommonError::TypeMismatch {
                                operation: "path concatenation".into(),
                                detail: "paths do not share a seam vertex".into(),
                            })
                    }
                }
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (p, _) => Err(type_err("path concatenation", &p)),
            },
        }
    }

    /// Evaluate a sub-expression for the expression around it: a failing
    /// operation is `null` there (module docs).
    fn operand(&self, tuple: &[Value]) -> Value {
        self.eval(tuple).unwrap_or(Value::Null)
    }

    /// Evaluate as a predicate: `true` keeps the tuple; `false`, `null`
    /// and evaluation errors drop it (Cypher is dynamically typed:
    /// `WHERE 1.x = 2` or `p.name + 1 > 2` on a string compile, and fail
    /// per tuple).
    pub fn matches(&self, tuple: &[Value]) -> bool {
        matches!(self.eval(tuple), Ok(v) if truth(&v) == Some(true))
    }

    /// All column indexes referenced.
    pub(crate) fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit_leaves(&mut |leaf| {
            if let ScalarExpr::Col(i) = leaf {
                out.push(*i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The two columns of a `Col(a) = Col(b)` over distinct columns, the
    /// conjunct a join can key on by value.
    pub(crate) fn equated_columns(&self) -> Option<(usize, usize)> {
        match self {
            ScalarExpr::Binary(BinOp::Eq, l, r) => match (&**l, &**r) {
                (ScalarExpr::Col(a), ScalarExpr::Col(b)) if a != b => Some((*a, *b)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Does any parameter slot occur?
    pub(crate) fn has_params(&self) -> bool {
        let mut found = false;
        self.visit_leaves(&mut |leaf| found |= matches!(leaf, ScalarExpr::Param(_)));
        found
    }

    /// Call `f` on every leaf (`Col`, `Lit`, `Param`), left to right.
    fn visit_leaves(&self, f: &mut dyn FnMut(&ScalarExpr)) {
        match self {
            ScalarExpr::Col(_) | ScalarExpr::Lit(_) | ScalarExpr::Param(_) => f(self),
            ScalarExpr::Binary(_, l, r)
            | ScalarExpr::Index(l, r)
            | ScalarExpr::PathConcat(l, r) => {
                l.visit_leaves(f);
                r.visit_leaves(f);
            }
            ScalarExpr::Unary(_, e) | ScalarExpr::PathSingle(e) => e.visit_leaves(f),
            ScalarExpr::IsNull { expr, .. } => expr.visit_leaves(f),
            ScalarExpr::Func { args: items, .. } | ScalarExpr::List(items) => {
                for e in items {
                    e.visit_leaves(f);
                }
            }
            ScalarExpr::Map(entries) => {
                for (_, e) in entries {
                    e.visit_leaves(f);
                }
            }
            ScalarExpr::PathExtend(a, b, c) => {
                a.visit_leaves(f);
                b.visit_leaves(f);
                c.visit_leaves(f);
            }
        }
    }

    /// Replace every column reference with the corresponding projection
    /// expression (`Col(i)` ↦ `items[i].0`) — the substitution that
    /// moves a predicate or projection *through* a π operator. Exact
    /// because both π and the substituted expression are pure per-tuple
    /// functions.
    pub(crate) fn substitute(&self, items: &[(ScalarExpr, String)]) -> ScalarExpr {
        self.rewrite_columns(&|i| items[i].0.clone())
    }

    /// Rewrite column references through `mapping` (old index → new index).
    pub(crate) fn remap_columns(&self, mapping: &dyn Fn(usize) -> usize) -> ScalarExpr {
        self.rewrite_columns(&|i| ScalarExpr::Col(mapping(i)))
    }

    /// Flatten a chain of the associative connective `op` into its
    /// operands (`a AND (b AND c)` ↦ `[a, b, c]`); an expression that is
    /// not such a chain is its own single operand.
    pub(crate) fn operands(self, op: BinOp) -> Vec<ScalarExpr> {
        match self {
            ScalarExpr::Binary(o, l, r) if o == op => {
                let mut out = l.operands(op);
                out.extend(r.operands(op));
                out
            }
            other => vec![other],
        }
    }

    /// Fold constant subexpressions and simplify boolean identities
    /// (`true AND p` ↦ `p`, `false OR p` ↦ `p`, …). A column-free
    /// subexpression folds only when it evaluates without error, so a
    /// folded predicate keeps and drops exactly the tuples the original
    /// did, and one holding a parameter slot waits for [`bind`](Self::bind).
    pub(crate) fn fold(self) -> ScalarExpr {
        let e = match self {
            ScalarExpr::Binary(op, l, r) => {
                ScalarExpr::Binary(op, Box::new(l.fold()), Box::new(r.fold()))
            }
            ScalarExpr::Unary(op, x) => ScalarExpr::Unary(op, Box::new(x.fold())),
            ScalarExpr::Func { name, args } => ScalarExpr::Func {
                name,
                args: args.into_iter().map(ScalarExpr::fold).collect(),
            },
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.fold()),
                negated,
            },
            ScalarExpr::List(xs) => {
                ScalarExpr::List(xs.into_iter().map(ScalarExpr::fold).collect())
            }
            ScalarExpr::Map(entries) => {
                ScalarExpr::Map(entries.into_iter().map(|(k, v)| (k, v.fold())).collect())
            }
            ScalarExpr::Index(b, i) => ScalarExpr::Index(Box::new(b.fold()), Box::new(i.fold())),
            other => other,
        };
        if let ScalarExpr::Binary(op @ (BinOp::And | BinOp::Or), l, r) = &e {
            // AND: `true` is neutral, `false` absorbs; OR the reverse.
            let neutral = ScalarExpr::Lit(Value::Bool(*op == BinOp::And));
            let absorbing = ScalarExpr::Lit(Value::Bool(*op == BinOp::Or));
            if **l == neutral {
                return r.as_ref().clone();
            }
            if **r == neutral {
                return l.as_ref().clone();
            }
            if **l == absorbing || **r == absorbing {
                return absorbing;
            }
        }
        if e.columns().is_empty() && !e.has_params() && !matches!(e, ScalarExpr::Lit(_)) {
            if let Ok(v) = e.eval(&[]) {
                return ScalarExpr::Lit(v);
            }
        }
        e
    }

    /// Put `values[slot]` in place of every `Param(slot)`, then fold
    /// constant subexpressions: `col = -$0` becomes the `col = Lit`
    /// the evaluator can seek. `values` must cover every slot.
    pub fn bind(&self, values: &[Value]) -> ScalarExpr {
        self.rewrite_leaves(&mut |leaf| match leaf {
            ScalarExpr::Param(slot) => ScalarExpr::Lit(values[*slot].clone()),
            other => other.clone(),
        })
        .fold()
    }

    /// Structural rewrite replacing each `Col(i)` with `f(i)`.
    fn rewrite_columns(&self, f: &dyn Fn(usize) -> ScalarExpr) -> ScalarExpr {
        self.rewrite_leaves(&mut |leaf| match leaf {
            ScalarExpr::Col(i) => f(*i),
            other => other.clone(),
        })
    }

    /// Structural rewrite replacing each leaf (`Col`, `Lit`, `Param`)
    /// with `f(leaf)`.
    fn rewrite_leaves(&self, f: &mut dyn FnMut(&ScalarExpr) -> ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::Col(_) | ScalarExpr::Lit(_) | ScalarExpr::Param(_) => f(self),
            ScalarExpr::Binary(op, l, r) => ScalarExpr::Binary(
                *op,
                Box::new(l.rewrite_leaves(f)),
                Box::new(r.rewrite_leaves(f)),
            ),
            ScalarExpr::Unary(op, e) => ScalarExpr::Unary(*op, Box::new(e.rewrite_leaves(f))),
            ScalarExpr::Func { name, args } => ScalarExpr::Func {
                name: name.clone(),
                args: args.iter().map(|a| a.rewrite_leaves(f)).collect(),
            },
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.rewrite_leaves(f)),
                negated: *negated,
            },
            ScalarExpr::List(items) => {
                ScalarExpr::List(items.iter().map(|e| e.rewrite_leaves(f)).collect())
            }
            ScalarExpr::Map(entries) => ScalarExpr::Map(
                entries
                    .iter()
                    .map(|(k, e)| (k.clone(), e.rewrite_leaves(f)))
                    .collect(),
            ),
            ScalarExpr::Index(b, i) => {
                ScalarExpr::Index(Box::new(b.rewrite_leaves(f)), Box::new(i.rewrite_leaves(f)))
            }
            ScalarExpr::PathSingle(e) => ScalarExpr::PathSingle(Box::new(e.rewrite_leaves(f))),
            ScalarExpr::PathExtend(a, b, c) => ScalarExpr::PathExtend(
                Box::new(a.rewrite_leaves(f)),
                Box::new(b.rewrite_leaves(f)),
                Box::new(c.rewrite_leaves(f)),
            ),
            ScalarExpr::PathConcat(a, b) => {
                ScalarExpr::PathConcat(Box::new(a.rewrite_leaves(f)), Box::new(b.rewrite_leaves(f)))
            }
        }
    }
}

fn type_err(op: &str, v: &Value) -> CommonError {
    CommonError::TypeMismatch {
        operation: op.into(),
        detail: v.type_name().into(),
    }
}

/// Kleene truth value of `v`: `Some(bool)` or `None` for null/non-boolean.
pub(crate) fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn not3(v: Option<bool>) -> Value {
    match v {
        Some(b) => Value::Bool(!b),
        None => Value::Null,
    }
}

fn bool3(v: Option<bool>) -> Value {
    match v {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn eval_binary(
    op: BinOp,
    l: &ScalarExpr,
    r: &ScalarExpr,
    t: &[Value],
) -> Result<Value, CommonError> {
    use BinOp::*;
    // Short-circuiting Kleene logic for AND/OR.
    match op {
        And => {
            let lv = truth(&l.operand(t));
            if lv == Some(false) {
                return Ok(Value::Bool(false));
            }
            let rv = truth(&r.operand(t));
            return Ok(match (lv, rv) {
                (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        Or => {
            let lv = truth(&l.operand(t));
            if lv == Some(true) {
                return Ok(Value::Bool(true));
            }
            let rv = truth(&r.operand(t));
            return Ok(match (lv, rv) {
                (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        Xor => {
            let lv = truth(&l.operand(t));
            let rv = truth(&r.operand(t));
            return Ok(match (lv, rv) {
                (Some(a), Some(b)) => Value::Bool(a != b),
                _ => Value::Null,
            });
        }
        _ => {}
    }

    apply_binary(op, &l.operand(t), &r.operand(t))
}

/// The Kleene truth of a comparison (`=`, `<>`, `<`, `<=`, `>`, `>=`):
/// `None` when either side is `null` or the two are not comparable.
pub(crate) fn comparison(op: BinOp, lv: &Value, rv: &Value) -> Option<bool> {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => lv.cypher_eq(rv),
        BinOp::Neq => lv.cypher_eq(rv).map(|b| !b),
        _ => {
            let o = lv.compare(rv)?;
            Some(match op {
                BinOp::Lt => o == Less,
                BinOp::Le => o != Greater,
                BinOp::Gt => o == Greater,
                _ => o != Less,
            })
        }
    }
}

/// A non-logical binary operator applied to its operands' values (the
/// Kleene connectives read their operands' truth instead).
pub(crate) fn apply_binary(op: BinOp, lv: &Value, rv: &Value) -> Result<Value, CommonError> {
    use BinOp::*;
    Ok(match op {
        Add => lv.add(rv)?,
        Sub => lv.sub(rv)?,
        Mul => lv.mul(rv)?,
        Div => lv.div(rv)?,
        Mod => lv.modulo(rv)?,
        Pow => match (lv.as_f64(), rv.as_f64()) {
            (Some(a), Some(b)) => Value::float(a.powf(b)),
            _ if lv.is_null() || rv.is_null() => Value::Null,
            _ => {
                return Err(CommonError::TypeMismatch {
                    operation: "^".into(),
                    detail: format!("{} ^ {}", lv.type_name(), rv.type_name()),
                })
            }
        },
        Eq | Neq | Lt | Le | Gt | Ge => bool3(comparison(op, lv, rv)),
        In => match (lv, rv) {
            (_, Value::Null) | (Value::Null, _) => Value::Null,
            (x, Value::List(items)) => Value::Bool(items.iter().any(|i| i == x)),
            _ => {
                return Err(CommonError::TypeMismatch {
                    operation: "IN".into(),
                    detail: format!("{} IN {}", lv.type_name(), rv.type_name()),
                })
            }
        },
        StartsWith | EndsWith | Contains => match (lv, rv) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (Value::Str(a), Value::Str(b)) => Value::Bool(match op {
                StartsWith => a.starts_with(b.as_ref()),
                EndsWith => a.ends_with(b.as_ref()),
                _ => a.contains(b.as_ref()),
            }),
            _ => Value::Null,
        },
        And | Or | Xor => unreachable!("the connectives read truth, not values"),
    })
}

fn index_value(base: &Value, idx: &Value) -> Result<Value, CommonError> {
    match (base, idx) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::List(items), Value::Int(i)) => {
            let len = items.len() as i64;
            let j = if *i < 0 { len + i } else { *i };
            if j < 0 || j >= len {
                Ok(Value::Null)
            } else {
                Ok(items[j as usize].clone())
            }
        }
        (Value::Map(m), Value::Str(k)) => Ok(m.get(k.as_ref()).cloned().unwrap_or(Value::Null)),
        _ => Err(CommonError::TypeMismatch {
            operation: "subscript".into(),
            detail: format!("{}[{}]", base.type_name(), idx.type_name()),
        }),
    }
}

/// Built-in scalar functions.
pub(crate) fn call_function(name: &str, args: &[Value]) -> Result<Value, CommonError> {
    let arity_err = || CommonError::TypeMismatch {
        operation: format!("{name}()"),
        detail: format!("wrong number of arguments ({})", args.len()),
    };
    match name {
        "id" => match args {
            [Value::Node(v)] => Ok(Value::Int(v.raw() as i64)),
            [Value::Rel(e)] => Ok(Value::Int(e.raw() as i64)),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("id()", v)),
            _ => Err(arity_err()),
        },
        "size" => match args {
            [Value::List(items)] => Ok(Value::Int(items.len() as i64)),
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [Value::Map(m)] => Ok(Value::Int(m.len() as i64)),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("size()", v)),
            _ => Err(arity_err()),
        },
        "length" => match args {
            [Value::Path(p)] => Ok(Value::Int(p.len() as i64)),
            [Value::List(items)] => Ok(Value::Int(items.len() as i64)),
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("length()", v)),
            _ => Err(arity_err()),
        },
        "nodes" => match args {
            [Value::Path(p)] => Ok(Value::list(
                p.vertices().iter().map(|&v| Value::Node(v)).collect(),
            )),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("nodes()", v)),
            _ => Err(arity_err()),
        },
        "relationships" => match args {
            [Value::Path(p)] => Ok(Value::list(
                p.edges().iter().map(|&e| Value::Rel(e)).collect(),
            )),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("relationships()", v)),
            _ => Err(arity_err()),
        },
        "head" => match args {
            [Value::List(items)] => Ok(items.first().cloned().unwrap_or(Value::Null)),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("head()", v)),
            _ => Err(arity_err()),
        },
        "last" => match args {
            [Value::List(items)] => Ok(items.last().cloned().unwrap_or(Value::Null)),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("last()", v)),
            _ => Err(arity_err()),
        },
        "abs" => match args {
            [Value::Int(i)] => Ok(Value::Int(
                i.checked_abs()
                    .ok_or(CommonError::ArithmeticOverflow("abs"))?,
            )),
            [Value::Float(f)] => Ok(Value::float(f.get().abs())),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("abs()", v)),
            _ => Err(arity_err()),
        },
        "sign" => match args {
            [Value::Int(i)] => Ok(Value::Int(i.signum())),
            [Value::Float(f)] => Ok(Value::Int(if f.get() > 0.0 {
                1
            } else if f.get() < 0.0 {
                -1
            } else {
                0
            })),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("sign()", v)),
            _ => Err(arity_err()),
        },
        "toupper" => match args {
            [Value::Str(s)] => Ok(Value::from(s.to_uppercase())),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("toUpper()", v)),
            _ => Err(arity_err()),
        },
        "tolower" => match args {
            [Value::Str(s)] => Ok(Value::from(s.to_lowercase())),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("toLower()", v)),
            _ => Err(arity_err()),
        },
        "tostring" => match args {
            [Value::Null] => Ok(Value::Null),
            [Value::Str(s)] => Ok(Value::Str(s.clone())),
            [v] => Ok(Value::from(v.to_string())),
            _ => Err(arity_err()),
        },
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        "exists" => match args {
            [v] => Ok(Value::Bool(!v.is_null())),
            _ => Err(arity_err()),
        },
        "startnode" => match args {
            [Value::Path(p)] => Ok(Value::Node(p.source())),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("startNode()", v)),
            _ => Err(arity_err()),
        },
        "endnode" => match args {
            [Value::Path(p)] => Ok(Value::Node(p.target())),
            [Value::Null] => Ok(Value::Null),
            [v] => Err(type_err("endNode()", v)),
            _ => Err(arity_err()),
        },
        other => Err(CommonError::TypeMismatch {
            operation: format!("{other}()"),
            detail: "unknown function".into(),
        }),
    }
}

/// Aggregate functions of the (paper-future-work) aggregation extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AggFunc {
    Count,
    CountStar,
    Sum,
    Min,
    Max,
    Avg,
    Collect,
}

impl AggFunc {
    /// Parse from a lower-cased function name.
    pub(crate) fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            "collect" => AggFunc::Collect,
            _ => return None,
        })
    }
}

/// One aggregate call in an `Aggregate` operator.
#[derive(Clone, Debug, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument (absent for `count(*)`).
    pub arg: Option<ScalarExpr>,
    /// `DISTINCT` flag.
    pub distinct: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::ids::{EdgeId, VertexId};
    use pgq_common::tuple::Tuple;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    /// `-'x'` fails; to `OR`, `AND`, `IS NULL` around it, in either
    /// operand order, it is `null` — only at the root is it an error.
    #[test]
    fn a_failing_operand_is_null_to_the_expression_around_it() {
        let row = t(vec![Value::str("fr")]);
        let fails = ScalarExpr::Unary(UnOp::Neg, Box::new(ScalarExpr::lit("x")));
        let is_fr = ScalarExpr::Binary(
            BinOp::Eq,
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::lit("fr")),
        );
        let bin = |op, a: &ScalarExpr, b: &ScalarExpr| {
            ScalarExpr::Binary(op, Box::new(a.clone()), Box::new(b.clone()))
        };
        for (a, b) in [(&fails, &is_fr), (&is_fr, &fails)] {
            assert_eq!(bin(BinOp::Or, a, b).eval(&row).unwrap(), Value::Bool(true));
            assert_eq!(bin(BinOp::And, a, b).eval(&row).unwrap(), Value::Null);
        }
        let is_null = ScalarExpr::IsNull {
            expr: Box::new(fails.clone()),
            negated: false,
        };
        assert_eq!(is_null.eval(&row).unwrap(), Value::Bool(true));
        assert!(fails.eval(&row).is_err());
    }

    #[test]
    fn column_and_literal() {
        let row = t(vec![Value::Int(7)]);
        assert_eq!(ScalarExpr::col(0).eval(&row).unwrap(), Value::Int(7));
        assert_eq!(ScalarExpr::lit(3).eval(&row).unwrap(), Value::Int(3));
    }

    #[test]
    fn kleene_logic() {
        let row = t(vec![]);
        let tru = ScalarExpr::lit(true);
        let fal = ScalarExpr::lit(false);
        let nul = ScalarExpr::Lit(Value::Null);
        let and = |a: &ScalarExpr, b: &ScalarExpr| {
            ScalarExpr::Binary(BinOp::And, Box::new(a.clone()), Box::new(b.clone()))
                .eval(&row)
                .unwrap()
        };
        let or = |a: &ScalarExpr, b: &ScalarExpr| {
            ScalarExpr::Binary(BinOp::Or, Box::new(a.clone()), Box::new(b.clone()))
                .eval(&row)
                .unwrap()
        };
        assert_eq!(and(&nul, &fal), Value::Bool(false));
        assert_eq!(and(&nul, &tru), Value::Null);
        assert_eq!(or(&nul, &tru), Value::Bool(true));
        assert_eq!(or(&nul, &fal), Value::Null);
        let not_null = ScalarExpr::Unary(UnOp::Not, Box::new(nul.clone()))
            .eval(&row)
            .unwrap();
        assert_eq!(not_null, Value::Null);
    }

    #[test]
    fn null_comparison_filters_out() {
        let row = t(vec![Value::Null, Value::Int(1)]);
        let pred = ScalarExpr::Binary(
            BinOp::Eq,
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::col(1)),
        );
        assert!(!pred.matches(&row));
    }

    #[test]
    fn path_builders() {
        let row = t(vec![
            Value::Node(VertexId(1)),
            Value::Rel(EdgeId(10)),
            Value::Node(VertexId(2)),
        ]);
        let p = ScalarExpr::PathExtend(
            Box::new(ScalarExpr::PathSingle(Box::new(ScalarExpr::col(0)))),
            Box::new(ScalarExpr::col(1)),
            Box::new(ScalarExpr::col(2)),
        );
        let v = p.eval(&row).unwrap();
        let path = v.as_path().unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(path.source(), VertexId(1));
        assert_eq!(path.target(), VertexId(2));
    }

    #[test]
    fn functions_on_paths() {
        let path = PathValue::single(VertexId(1)).extend(EdgeId(5), VertexId(2));
        let row = t(vec![Value::path(path)]);
        let nodes = ScalarExpr::Func {
            name: "nodes".into(),
            args: vec![ScalarExpr::col(0)],
        }
        .eval(&row)
        .unwrap();
        assert_eq!(
            nodes,
            Value::list(vec![Value::Node(VertexId(1)), Value::Node(VertexId(2))])
        );
        let len = ScalarExpr::Func {
            name: "length".into(),
            args: vec![ScalarExpr::col(0)],
        }
        .eval(&row)
        .unwrap();
        assert_eq!(len, Value::Int(1));
    }

    #[test]
    fn in_and_string_ops() {
        let row = t(vec![Value::str("en")]);
        let pred = ScalarExpr::Binary(
            BinOp::In,
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::List(vec![
                ScalarExpr::lit("de"),
                ScalarExpr::lit("en"),
            ])),
        );
        assert!(pred.matches(&row));
        let starts = ScalarExpr::Binary(
            BinOp::StartsWith,
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::lit("e")),
        );
        assert!(starts.matches(&row));
    }

    #[test]
    fn subscripts() {
        let row = t(vec![Value::list(vec![10.into(), 20.into()])]);
        let ix = |i: i64| {
            ScalarExpr::Index(Box::new(ScalarExpr::col(0)), Box::new(ScalarExpr::lit(i)))
                .eval(&row)
                .unwrap()
        };
        assert_eq!(ix(0), Value::Int(10));
        assert_eq!(ix(-1), Value::Int(20));
        assert_eq!(ix(5), Value::Null);
    }

    #[test]
    fn coalesce_and_exists() {
        assert_eq!(
            call_function("coalesce", &[Value::Null, Value::Int(2)]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            call_function("exists", &[Value::Null]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn remap_columns() {
        let e = ScalarExpr::Binary(
            BinOp::Add,
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::col(2)),
        );
        let remapped = e.remap_columns(&|i| i + 10);
        assert_eq!(remapped.columns(), vec![10, 12]);
    }

    #[test]
    fn folds_arithmetic_constants() {
        let e = ScalarExpr::Binary(
            BinOp::Add,
            Box::new(ScalarExpr::lit(2)),
            Box::new(ScalarExpr::lit(3)),
        );
        assert_eq!(e.fold(), ScalarExpr::lit(5));
    }

    #[test]
    fn folds_boolean_identities() {
        let c = ScalarExpr::Col(0);
        let e = ScalarExpr::Binary(
            BinOp::And,
            Box::new(ScalarExpr::lit(true)),
            Box::new(c.clone()),
        );
        assert_eq!(e.fold(), c);
        let e = ScalarExpr::Binary(
            BinOp::Or,
            Box::new(ScalarExpr::lit(true)),
            Box::new(ScalarExpr::Col(1)),
        );
        assert_eq!(e.fold(), ScalarExpr::lit(true));
    }

    #[test]
    fn does_not_fold_column_expressions() {
        let e = ScalarExpr::Binary(
            BinOp::Add,
            Box::new(ScalarExpr::Col(0)),
            Box::new(ScalarExpr::lit(1)),
        );
        assert_eq!(e.clone().fold(), e);
    }

    #[test]
    fn unknown_function_errors() {
        assert!(call_function("frobnicate", &[]).is_err());
    }
}
