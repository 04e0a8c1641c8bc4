//! Row representation for graph relations.
//!
//! A [`Tuple`] is a fixed-width sequence of [`Value`]s whose meaning is
//! given by the operator's inferred schema (attribute names live in the
//! algebra layer, not here — the paper's step 3 infers them per query).
//! Tuples are `Eq + Hash` so they can key multiplicity maps in the IVM
//! network.
//!
//! # Borrowed keys
//!
//! The IVM hot path probes join memories once per delta entry.
//! Materialising a key `Tuple` per probe (`Arc` allocation + value
//! clones) dominates small-delta maintenance cost, so [`KeyRef`] is a
//! borrowed view of a tuple's projection onto a column set, carrying a
//! precomputed hash. The hash is defined over the projected *value
//! sequence* (see `hash_values`), so it agrees with the hash of a
//! standalone key tuple holding the same values:
//! `KeyRef::new(&t, cols).hash() == hash_values(t.project(cols).iter())`.
//! Index structures can therefore bucket by this `u64` and compare
//! entries with [`KeyRef::matches_projection`] / [`KeyRef::matches_key`]
//! without ever building the key tuple.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::fxhash::FxHasher;
use crate::value::Value;

/// Hash a sequence of values with the workspace Fx hasher, in order,
/// mixing in the element count. This is the *key hash* used by the IVM
/// join memories: hashing a projection of a tuple and hashing the
/// materialised key tuple built from the same values produce the same
/// result.
pub(crate) fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    let mut n: u64 = 0;
    for v in values {
        v.hash(&mut h);
        n += 1;
    }
    h.write_u64(n);
    h.finish()
}

/// An immutable row of values, cheap to clone (`Arc`-backed).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Empty tuple (unit row).
    pub fn unit() -> Tuple {
        Tuple(Arc::from(Vec::new()))
    }

    /// Build from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple(Arc::from(values))
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Attribute at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Build from a borrowed slice (one allocation, values cloned).
    pub fn from_slice(values: &[Value]) -> Tuple {
        Tuple(Arc::from(values))
    }

    /// Project the positions in `cols`, in order.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple::new(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// Borrowed key view of this tuple's projection onto `cols`, with the
    /// projection hash precomputed (see [`KeyRef`]).
    pub fn key_ref<'a>(&'a self, cols: &'a [usize]) -> KeyRef<'a> {
        KeyRef::new(self, cols)
    }

    /// Key hash of this tuple's projection onto `cols` — equals
    /// `hash_values` over the projected values.
    pub fn hash_projected(&self, cols: &[usize]) -> u64 {
        hash_values(cols.iter().map(|&c| &self.0[c]))
    }

    /// Key hash of the whole tuple — equals `hash_values` over all
    /// values, i.e. the hash a projection producing exactly these values
    /// would have. Used to probe key-hashed indexes with a standalone key
    /// tuple.
    pub fn hash_whole(&self) -> u64 {
        hash_values(self.0.iter())
    }

    /// Total order over tuples: lexicographic by [`Value::total_cmp`],
    /// shorter tuples first on a shared prefix. Used for deterministic
    /// (sorted) delta orderings; a read's result order,
    /// [`cmp_rows`](crate::order::cmp_rows), refines it where it ties
    /// rows that `==` tells apart.
    pub fn total_cmp(&self, other: &Tuple) -> std::cmp::Ordering {
        self.0
            .iter()
            .zip(other.0.iter())
            .fold(std::cmp::Ordering::Equal, |acc, (x, y)| {
                acc.then_with(|| x.total_cmp(y))
            })
            .then_with(|| self.0.len().cmp(&other.0.len()))
    }

    /// Append one value.
    pub fn push(&self, value: Value) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(value);
        Tuple::new(v)
    }

    /// Iterate values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

/// A borrowed view of a tuple's projection onto a column set, with the
/// key hash precomputed.
///
/// `KeyRef` lets an index keyed by projection hashes probe and compare
/// without materialising a key [`Tuple`]: the hash agrees with
/// `hash_values` over the projected values (and hence with
/// [`Tuple::hash_whole`] of the materialised key), and the `matches_*`
/// methods compare value-by-value against either another projection or a
/// standalone key tuple.
#[derive(Clone, Copy, Debug)]
pub struct KeyRef<'a> {
    tuple: &'a Tuple,
    cols: &'a [usize],
    hash: u64,
}

impl<'a> KeyRef<'a> {
    /// Borrow the projection of `tuple` onto `cols`, hashing it once.
    pub(crate) fn new(tuple: &'a Tuple, cols: &'a [usize]) -> KeyRef<'a> {
        KeyRef {
            tuple,
            cols,
            hash: tuple.hash_projected(cols),
        }
    }

    /// The precomputed key hash.
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Does `other.project(other_cols)` equal this key?
    pub fn matches_projection(&self, other: &Tuple, other_cols: &[usize]) -> bool {
        self.cols.len() == other_cols.len()
            && self
                .cols
                .iter()
                .zip(other_cols)
                .all(|(&a, &b)| self.tuple.get(a) == other.get(b))
    }

    /// Does the standalone key tuple `key` hold exactly this key's values?
    pub fn matches_key(&self, key: &Tuple) -> bool {
        self.cols.len() == key.arity()
            && self
                .cols
                .iter()
                .zip(key.iter())
                .all(|(&a, v)| self.tuple.get(a) == v)
    }

    /// Materialise the key as an owned [`Tuple`] (the one allocation this
    /// API otherwise avoids — call only when the key must be stored).
    pub fn to_tuple(&self) -> Tuple {
        self.tuple.project(self.cols)
    }
}

/// A tuple is its values: expressions evaluate over `&[Value]`, so a
/// stored tuple and a row assembled in a scratch buffer are read alike.
impl std::ops::Deref for Tuple {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

/// Hash-keyed tuple maps can be probed with a borrowed row (`Tuple`
/// hashes and compares exactly as its value slice does).
impl std::borrow::Borrow<[Value]> for Tuple {
    #[inline]
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let a = t(&[10, 20, 30]);
        assert_eq!(a.project(&[2, 0, 0]), t(&[30, 10, 10]));
    }

    #[test]
    fn push_appends() {
        let a = t(&[1]);
        assert_eq!(a.push(Value::Int(2)), t(&[1, 2]));
    }

    #[test]
    fn equality_and_hash_by_content() {
        use crate::fxhash::FxHashMap;
        let mut m: FxHashMap<Tuple, i64> = FxHashMap::default();
        m.insert(t(&[1, 2]), 1);
        *m.entry(t(&[1, 2])).or_insert(0) += 1;
        assert_eq!(m[&t(&[1, 2])], 2);
    }

    #[test]
    fn display() {
        assert_eq!(t(&[1, 2]).to_string(), "⟨1, 2⟩");
    }

    #[test]
    fn key_ref_hash_agrees_with_materialised_key() {
        let a = t(&[10, 20, 30]);
        let cols = [2usize, 0];
        let key = a.project(&cols);
        let kr = a.key_ref(&cols);
        assert_eq!(kr.hash(), key.hash_whole());
        assert_eq!(kr.hash(), hash_values(key.iter()));
        assert!(kr.matches_key(&key));
        assert!(!kr.matches_key(&t(&[30, 11])));
        assert_eq!(kr.to_tuple(), key);
    }

    #[test]
    fn key_ref_matches_projection_across_column_sets() {
        let a = t(&[1, 2, 3]);
        let b = t(&[9, 3, 1]);
        // a[(0,2)] = (1,3); b[(2,1)] = (1,3).
        assert!(a.key_ref(&[0, 2]).matches_projection(&b, &[2, 1]));
        assert!(!a.key_ref(&[0, 2]).matches_projection(&b, &[1, 2]));
        assert!(!a.key_ref(&[0]).matches_projection(&b, &[1, 2]));
        assert_eq!(
            a.hash_projected(&[0, 2]),
            b.hash_projected(&[2, 1]),
            "equal projections hash equal"
        );
    }

    #[test]
    fn empty_key_ref_matches_unit() {
        let a = t(&[1]);
        let kr = a.key_ref(&[]);
        assert!(kr.matches_key(&Tuple::unit()));
        assert_eq!(kr.hash(), Tuple::unit().hash_whole());
    }

    #[test]
    fn total_cmp_orders_lexicographically() {
        use std::cmp::Ordering;
        assert_eq!(t(&[1, 2]).total_cmp(&t(&[1, 3])), Ordering::Less);
        assert_eq!(t(&[1]).total_cmp(&t(&[1, 0])), Ordering::Less);
        assert_eq!(t(&[2]).total_cmp(&t(&[1, 9])), Ordering::Greater);
        assert_eq!(t(&[1, 2]).total_cmp(&t(&[1, 2])), Ordering::Equal);
    }
}
