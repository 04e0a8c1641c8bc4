//! The openCypher value model.
//!
//! [`Value`] covers the atoms of the paper's domain `D`, graph element
//! references, and the nested collection types (lists, maps, paths) that
//! make the property graph model *nested-relational*. Values are cheap to
//! clone: collections are `Arc`-shared, and strings are [`Text`] — up to
//! 14 bytes inline, longer ones behind a thin `Arc`. A `Value` is 16
//! bytes (const-asserted), so a three-column row is a 16-byte `Arc`
//! header plus 48 bytes.
//!
//! `Value` is totally ordered and hashable so that it can key operator
//! memories in the dataflow and be sorted by the baseline evaluator. The
//! total order follows the openCypher orderability spec in spirit: values
//! of different kinds order by a fixed type rank, `Null` sorts last.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::CommonError;
use crate::ids::{EdgeId, VertexId};
use crate::ordf::OrdF64;
use crate::path::PathValue;
use crate::text::Text;

/// A runtime value in a graph relation.
///
/// Sixteen bytes on 64-bit targets: every payload is one word except
/// [`Text`], whose spare tag values hold the discriminant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// Absent / unknown value (SQL-style three-valued logic applies).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float with total order semantics (see [`OrdF64`]).
    Float(OrdF64),
    /// UTF-8 string.
    Str(Text),
    /// Reference to a vertex.
    Node(VertexId),
    /// Reference to an edge.
    Rel(EdgeId),
    /// Ordered list of values. In the *maintainable* fragment lists may
    /// appear only as query results/aggregates, never as stored property
    /// values (the paper's bag-only data model restriction).
    List(Arc<Vec<Value>>),
    /// String-keyed map.
    Map(Arc<BTreeMap<String, Value>>),
    /// Atomic path (the one ordered collection the paper retains).
    Path(Arc<PathValue>),
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Construct a string value (copied; `Value::from(String)` moves).
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Text::from(s.as_ref()))
    }

    /// Construct a float value.
    pub fn float(f: f64) -> Value {
        Value::Float(OrdF64(f))
    }

    /// Construct a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(items))
    }

    /// Construct a map value.
    pub fn map(entries: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Map(Arc::new(entries.into_iter().collect()))
    }

    /// Construct a path value.
    pub fn path(p: PathValue) -> Value {
        Value::Path(Arc::new(p))
    }

    /// Human-readable type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Node(_) => "node",
            Value::Rel(_) => "relationship",
            Value::List(_) => "list",
            Value::Map(_) => "map",
            Value::Path(_) => "path",
        }
    }

    /// Is this `Null`?
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View as vertex id, if a node reference.
    pub fn as_node(&self) -> Option<VertexId> {
        match self {
            Value::Node(v) => Some(*v),
            _ => None,
        }
    }

    /// View as edge id, if a relationship reference.
    pub fn as_rel(&self) -> Option<EdgeId> {
        match self {
            Value::Rel(e) => Some(*e),
            _ => None,
        }
    }

    /// View as integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as float, coercing integers (Cypher numeric coercion).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f.get()),
            _ => None,
        }
    }

    /// View as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as path.
    pub fn as_path(&self) -> Option<&PathValue> {
        match self {
            Value::Path(p) => Some(p),
            _ => None,
        }
    }

    fn type_rank(&self) -> u8 {
        // openCypher orderability: maps < nodes < relationships < lists <
        // paths < strings < booleans < numbers < null. We follow that
        // ranking so baseline ORDER BY output is spec-plausible.
        match self {
            Value::Map(_) => 0,
            Value::Node(_) => 1,
            Value::Rel(_) => 2,
            Value::List(_) => 3,
            Value::Path(_) => 4,
            Value::Str(_) => 5,
            Value::Bool(_) => 6,
            Value::Int(_) | Value::Float(_) => 7,
            Value::Null => 8,
        }
    }

    /// Total order over all values ("orderability"). Numbers compare by
    /// numeric value across Int/Float; everything else compares within its
    /// type, and across types by a fixed type rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.cmp(b),
            (Int(a), Float(b)) => OrdF64(*a as f64).cmp(b),
            (Float(a), Int(b)) => a.cmp(&OrdF64(*b as f64)),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Node(a), Node(b)) => a.cmp(b),
            (Rel(a), Rel(b)) => a.cmp(b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.total_cmp(y) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            (Map(a), Map(b)) => {
                let mut ia = a.iter();
                let mut ib = b.iter();
                loop {
                    match (ia.next(), ib.next()) {
                        (None, None) => return Ordering::Equal,
                        (None, Some(_)) => return Ordering::Less,
                        (Some(_), None) => return Ordering::Greater,
                        (Some((ka, va)), Some((kb, vb))) => {
                            match ka.cmp(kb).then_with(|| va.total_cmp(vb)) {
                                Ordering::Equal => continue,
                                ord => return ord,
                            }
                        }
                    }
                }
            }
            (Path(a), Path(b)) => a.cmp(b),
            (Null, Null) => Ordering::Equal,
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    /// Cypher *comparability*: `None` models the `null` outcome (either
    /// operand null, or the operands are incomparable types).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(_), Int(_))
            | (Float(_), Float(_))
            | (Int(_), Float(_))
            | (Float(_), Int(_))
            | (Str(_), Str(_))
            | (Bool(_), Bool(_)) => Some(self.total_cmp(other)),
            _ => None,
        }
    }

    /// Cypher equality with three-valued logic: `None` means `null`.
    /// Only an integer and a float compare across types (`1 = 1.0`);
    /// every other pair is equal exactly when `==` says so.
    pub fn cypher_eq(&self, other: &Value) -> Option<bool> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(_), Float(_)) | (Float(_), Int(_)) => {
                Some(self.total_cmp(other) == Ordering::Equal)
            }
            _ => Some(self == other),
        }
    }

    /// `+` — numeric addition, string/list concatenation.
    pub fn add(&self, other: &Value) -> Result<Value, CommonError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a
                .checked_add(*b)
                .ok_or(CommonError::ArithmeticOverflow("+"))?),
            (Int(a), Float(b)) => Value::float(*a as f64 + b.get()),
            (Float(a), Int(b)) => Value::float(a.get() + *b as f64),
            (Float(a), Float(b)) => Value::float(a.get() + b.get()),
            (Str(a), Str(b)) => {
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Value::from(s)
            }
            (List(a), List(b)) => {
                let mut v = Vec::with_capacity(a.len() + b.len());
                v.extend(a.iter().cloned());
                v.extend(b.iter().cloned());
                Value::list(v)
            }
            (List(a), b) => {
                let mut v = Vec::with_capacity(a.len() + 1);
                v.extend(a.iter().cloned());
                v.push(b.clone());
                Value::list(v)
            }
            _ => {
                return Err(CommonError::TypeMismatch {
                    operation: "+".into(),
                    detail: format!("{} + {}", self.type_name(), other.type_name()),
                })
            }
        })
    }

    /// `-`.
    pub fn sub(&self, other: &Value) -> Result<Value, CommonError> {
        self.numeric_binop(other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// `*`.
    pub fn mul(&self, other: &Value) -> Result<Value, CommonError> {
        self.numeric_binop(other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// `/` — integer division for two integers, float otherwise.
    pub fn div(&self, other: &Value) -> Result<Value, CommonError> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(_), Int(0)) => Err(CommonError::DivisionByZero),
            (Int(a), Int(b)) => Ok(Int(a.wrapping_div(*b))),
            _ => {
                let (a, b) = self.both_f64(other, "/")?;
                Ok(Value::float(a / b))
            }
        }
    }

    /// `%`.
    pub fn modulo(&self, other: &Value) -> Result<Value, CommonError> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(_), Int(0)) => Err(CommonError::DivisionByZero),
            (Int(a), Int(b)) => Ok(Int(a.wrapping_rem(*b))),
            _ => {
                let (a, b) = self.both_f64(other, "%")?;
                Ok(Value::float(a % b))
            }
        }
    }

    /// Unary minus.
    pub fn neg(&self) -> Result<Value, CommonError> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(
                i.checked_neg()
                    .ok_or(CommonError::ArithmeticOverflow("unary -"))?,
            )),
            Value::Float(f) => Ok(Value::float(-f.get())),
            _ => Err(CommonError::TypeMismatch {
                operation: "unary -".into(),
                detail: self.type_name().into(),
            }),
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &'static str,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> Result<Value, CommonError> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => Ok(Int(
                int_op(*a, *b).ok_or(CommonError::ArithmeticOverflow(op))?
            )),
            _ => {
                let (a, b) = self.both_f64(other, op)?;
                Ok(Value::float(float_op(a, b)))
            }
        }
    }

    fn both_f64(&self, other: &Value, op: &str) -> Result<(f64, f64), CommonError> {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(CommonError::TypeMismatch {
                operation: op.into(),
                detail: format!("{} {op} {}", self.type_name(), other.type_name()),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Node(v) => write!(f, "{v}"),
            Value::Rel(e) => write!(f, "{e}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Path(p) => write!(f, "{p}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Text::from(s))
    }
}
impl From<VertexId> for Value {
    fn from(v: VertexId) -> Self {
        Value::Node(v)
    }
}
impl From<EdgeId> for Value {
    fn from(e: EdgeId) -> Self {
        Value::Rel(e)
    }
}
impl From<PathValue> for Value {
    fn from(p: PathValue) -> Self {
        Value::path(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("en").to_string(), "'en'");
        assert_eq!(Value::list(vec![1.into(), 2.into()]).to_string(), "[1, 2]");
        assert_eq!(
            Value::map([("a".to_string(), Value::Int(1))]).to_string(),
            "{a: 1}"
        );
    }

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(
            Value::Int(2).compare(&Value::float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).compare(&Value::float(1.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_propagates_through_comparison() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).cypher_eq(&Value::Null), None);
    }

    #[test]
    fn incomparable_types_yield_null() {
        assert_eq!(Value::Int(1).compare(&Value::str("a")), None);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::float(0.5)).unwrap(),
            Value::float(2.5)
        );
        assert_eq!(
            Value::str("a").add(&Value::str("b")).unwrap(),
            Value::str("ab")
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(7).modulo(&Value::Int(2)).unwrap(), Value::Int(1));
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert_eq!(Value::Int(3).neg().unwrap(), Value::Int(-3));
    }

    #[test]
    fn arithmetic_null_propagation() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(1).sub(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn overflow_is_reported() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).neg().is_err());
    }

    #[test]
    fn list_concat() {
        let ab = Value::list(vec![1.into(), 2.into()]);
        let c = Value::list(vec![3.into()]);
        assert_eq!(
            ab.add(&c).unwrap(),
            Value::list(vec![1.into(), 2.into(), 3.into()])
        );
        assert_eq!(
            ab.add(&Value::Int(3)).unwrap(),
            Value::list(vec![1.into(), 2.into(), 3.into()])
        );
    }

    #[test]
    fn total_order_ranks_types_and_sorts_null_last() {
        let mut vals = [
            Value::Null,
            Value::Int(1),
            Value::str("x"),
            Value::Bool(true),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals.last().unwrap(), &Value::Null);
        assert_eq!(vals[0], Value::str("x"));
    }

    #[test]
    fn type_mismatch_errors() {
        assert!(Value::Bool(true).add(&Value::Int(1)).is_err());
        assert!(Value::str("x").neg().is_err());
    }
}
