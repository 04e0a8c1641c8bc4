//! Property maps for vertices and edges.
//!
//! A property map is the paper's partial function `p_i : V → D_i`. The
//! vocabulary of keys per graph is small and repetitive, so keys are
//! interned [`Symbol`]s and the map is a sorted vector — denser and faster
//! to scan than a hash map at the typical 2–10 entries.

use std::fmt;

use pgq_common::intern::Symbol;
use pgq_common::value::Value;

/// A compact key-sorted property map.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Properties {
    entries: Vec<(Symbol, Value)>,
}

impl Properties {
    /// Empty map.
    pub fn new() -> Self {
        Properties::default()
    }

    /// Build from an iterator of `(key, value)` pairs; later duplicates win.
    #[allow(clippy::should_implement_trait)] // ergonomic alias for the generic FromIterator impl
    pub fn from_iter<K: Into<Symbol>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Self {
        let mut p = Properties::new();
        for (k, v) in pairs {
            p.set(k.into(), v);
        }
        p
    }

    /// Number of properties.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the map empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up `key`.
    pub fn get(&self, key: Symbol) -> Option<&Value> {
        self.entries
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Look up `key`, returning `Value::Null` when absent (Cypher property
    /// access semantics).
    pub fn get_or_null(&self, key: Symbol) -> Value {
        self.get(key).cloned().unwrap_or(Value::Null)
    }

    /// Set `key` to `value`, returning the previous value if any.
    /// Setting to [`Value::Null`] removes the property (Cypher `SET n.p =
    /// null` semantics).
    pub fn set(&mut self, key: Symbol, value: Value) -> Option<Value> {
        if value.is_null() {
            return self.remove(key);
        }
        match self.entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`, returning its value if present.
    pub(crate) fn remove(&mut self, key: Symbol) -> Option<Value> {
        match self.entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Iterate `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Convert to a [`Value::Map`] (for returning whole elements).
    pub fn to_value_map(&self) -> Value {
        Value::map(
            self.entries
                .iter()
                .map(|(k, v)| (k.resolve().to_string(), v.clone())),
        )
    }
}

impl fmt::Display for Properties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl<K: Into<Symbol>> FromIterator<(K, Value)> for Properties {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
        Properties::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn set_get_remove_roundtrip() {
        let mut p = Properties::new();
        assert_eq!(p.set(sym("lang"), "en".into()), None);
        assert_eq!(p.get(sym("lang")), Some(&Value::str("en")));
        assert_eq!(p.set(sym("lang"), "de".into()), Some(Value::str("en")));
        assert_eq!(p.remove(sym("lang")), Some(Value::str("de")));
        assert!(p.is_empty());
    }

    #[test]
    fn missing_key_is_null() {
        let p = Properties::new();
        assert_eq!(p.get_or_null(sym("nope")), Value::Null);
    }

    #[test]
    fn setting_null_removes() {
        let mut p = Properties::from_iter([("a", Value::Int(1))]);
        p.set(sym("a"), Value::Null);
        assert!(p.get(sym("a")).is_none());
    }

    #[test]
    fn keys_stay_sorted() {
        let p = Properties::from_iter([
            ("z", Value::Int(1)),
            ("a", Value::Int(2)),
            ("m", Value::Int(3)),
        ]);
        let keys: Vec<u32> = p.iter().map(|(k, _)| k.index()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let p = Properties::from_iter([("k", Value::Int(1)), ("k", Value::Int(2))]);
        assert_eq!(p.get(sym("k")), Some(&Value::Int(2)));
        assert_eq!(p.len(), 1);
    }
}
