//! Secondary indexes over the property graph.
//!
//! The paper's nullary operators need fast extents: © `get-vertices` reads
//! the label index, ⇑ `get-edges` reads the type index, and the baseline
//! evaluator's expand steps walk the adjacency lists. All indexes are
//! maintained eagerly by the store's mutators.
//!
//! A fourth family is built on demand: a **property-equality index**
//! `(label, key) → value → vertices`, created the first time a one-shot
//! statement filters `(:label {key: literal})`
//! ([`PropertyGraph::ensure_prop_index`](crate::store::PropertyGraph::ensure_prop_index))
//! and from then on maintained by the same eager mutators — so a
//! rolled-back transaction, which undoes itself through those mutators,
//! leaves it exact. Nothing is persisted: after
//! recovery the index is rebuilt on first use. Values are filed under
//! [`prop_key`], which merges what `Value::cypher_eq` equates (`7` and
//! `7.0`), so a probe returns a *superset* of the matching vertices and
//! the caller's unchanged σ decides. A graph that never saw a keyed
//! statement pays one `is_empty` branch per vertex mutation.
//!
//! Buckets are dense `Vec`s (so extents hand out slices) paired with a
//! position map, making removal O(1) via swap-remove + backlink update —
//! deletion-heavy update streams used to pay an O(bucket) scan per
//! removal, turning churn on hot labels/types quadratic. Emptied buckets
//! are dropped from the outer maps so long-running churn does not leak
//! index entries.

use std::hash::{Hash, Hasher};

use pgq_common::fxhash::FxHashMap;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::ordf::OrdF64;
use pgq_common::value::Value;

use crate::props::Properties;

/// Small buckets are scanned linearly; beyond this many items a position
/// map is built and maintained. Adjacency buckets are overwhelmingly
/// tiny (vertex degree), where a scan beats map upkeep on every insert;
/// hot label/type extents grow past the threshold and get O(1) removal.
const POS_MAP_THRESHOLD: usize = 16;

/// A dense id bucket with O(1) membership removal at scale.
///
/// `items` is the extent handed out as a slice. For buckets larger than
/// [`POS_MAP_THRESHOLD`], `pos` maps each id to its index in `items`;
/// removal swap-removes and re-points the moved id's backlink. Order
/// within a bucket is not semantically meaningful.
#[derive(Debug, Clone)]
struct PosBucket<T> {
    items: Vec<T>,
    /// Lazily built once the bucket crosses the threshold; `None` for
    /// small buckets.
    pos: Option<FxHashMap<T, u32>>,
}

impl<T> Default for PosBucket<T> {
    fn default() -> Self {
        PosBucket {
            items: Vec::new(),
            pos: None,
        }
    }
}

impl<T: Copy + Eq + Hash> PosBucket<T> {
    fn push(&mut self, x: T) {
        debug_assert!(
            !self.items.contains(&x),
            "duplicate id pushed into index bucket"
        );
        if let Some(pos) = &mut self.pos {
            pos.insert(x, self.items.len() as u32);
        } else if self.items.len() >= POS_MAP_THRESHOLD {
            let mut pos: FxHashMap<T, u32> = self
                .items
                .iter()
                .enumerate()
                .map(|(i, &y)| (y, i as u32))
                .collect();
            pos.insert(x, self.items.len() as u32);
            self.pos = Some(pos);
        }
        self.items.push(x);
    }

    /// Is `x` in the bucket? One probe of `pos`, or a scan of at most
    /// [`POS_MAP_THRESHOLD`] items.
    fn contains(&self, x: T) -> bool {
        match &self.pos {
            Some(pos) => pos.contains_key(&x),
            None => self.items.contains(&x),
        }
    }

    /// Remove `x` if present; returns `true` when the bucket is empty
    /// afterwards (so the caller can drop it from its outer map).
    fn remove(&mut self, x: T) -> bool {
        let found = match &mut self.pos {
            Some(pos) => pos.remove(&x).map(|p| p as usize),
            None => self.items.iter().position(|&y| y == x),
        };
        if let Some(p) = found {
            self.items.swap_remove(p);
            if let (Some(pos), Some(&moved)) = (&mut self.pos, self.items.get(p)) {
                pos.insert(moved, p as u32);
            }
        }
        self.items.is_empty()
    }
}

/// Label, edge-type, adjacency and (on demand) property-equality
/// indexes.
#[derive(Default, Debug, Clone)]
pub(crate) struct GraphIndexes {
    label: FxHashMap<Symbol, PosBucket<VertexId>>,
    ty: FxHashMap<Symbol, PosBucket<EdgeId>>,
    out: FxHashMap<VertexId, PosBucket<EdgeId>>,
    inc: FxHashMap<VertexId, PosBucket<EdgeId>>,
    /// `(label, key) → prop_key(value) → vertices`; an entry exists from
    /// the first `ensure_prop` on, even when it empties.
    prop: FxHashMap<(Symbol, Symbol), FxHashMap<Value, Holders>>,
}

/// The vertices filed under one value. Keys are what statements seek
/// by, so nearly every value has one holder: that case is stored inline
/// (an entry is 32 bytes, no allocation) and only a shared value pays
/// for a bucket.
#[derive(Debug, Clone)]
enum Holders {
    One(VertexId),
    Many(Box<PosBucket<VertexId>>),
}

/// File `v` under `value` in one property index.
fn file(ix: &mut FxHashMap<Value, Holders>, value: &Value, v: VertexId) {
    use std::collections::hash_map::Entry;
    let Some(k) = prop_key(value) else { return };
    match ix.entry(k) {
        Entry::Vacant(slot) => {
            slot.insert(Holders::One(v));
        }
        Entry::Occupied(mut slot) => match slot.get_mut() {
            Holders::One(first) => {
                let mut bucket = PosBucket::default();
                bucket.push(*first);
                bucket.push(v);
                slot.insert(Holders::Many(Box::new(bucket)));
            }
            Holders::Many(bucket) => bucket.push(v),
        },
    }
}

impl Holders {
    fn as_slice(&self) -> &[VertexId] {
        match self {
            Holders::One(v) => std::slice::from_ref(v),
            Holders::Many(b) => &b.items,
        }
    }
}

/// The key a property value is filed under, `None` for values the index
/// does not hold (`null` is never stored; lists, maps and paths fall
/// back to the scan). Integers are filed as floats so that every pair
/// `Value::cypher_eq` equates shares a key (distinct huge integers may
/// collide — a probe is a superset, never the answer).
pub fn prop_key(v: &Value) -> Option<Value> {
    match v {
        Value::Int(i) => Some(Value::float(*i as f64)),
        Value::Null | Value::List(_) | Value::Map(_) | Value::Path(_) => None,
        other => Some(other.clone()),
    }
}

/// The key a value join compares a column under (the value keys of
/// `Fra::HashJoin`): [`prop_key`], and a list, map or path, which the
/// index does not file, as itself — `Value::cypher_eq` decides those by
/// structural equality. So every pair `cypher_eq` equates shares a key,
/// and `null`, `None` here, meets nothing.
pub fn join_key(v: &Value) -> Option<Value> {
    match v {
        Value::List(_) | Value::Map(_) | Value::Path(_) => Some(v.clone()),
        other => prop_key(other),
    }
}

/// `join_key(a) == join_key(b)`, both `Some`, without building either —
/// for a hash join's probe, which compares a key per candidate row.
pub fn join_keys_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => false,
        (Value::Int(x), Value::Int(y)) => OrdF64(*x as f64) == OrdF64(*y as f64),
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => {
            OrdF64(*x as f64) == *y
        }
        _ => a == b,
    }
}

/// Hash `v`'s [`join_key`] into `h` without building it: values whose
/// join keys are equal hash alike.
pub fn hash_join_key(v: &Value, h: &mut impl Hasher) {
    match v {
        Value::Int(i) => Value::float(*i as f64).hash(h),
        other => other.hash(h),
    }
}

/// Remove `x` from the bucket under `key`, dropping the bucket when it
/// empties.
fn bucket_remove<K: Eq + Hash, T: Copy + Eq + Hash>(
    map: &mut FxHashMap<K, PosBucket<T>>,
    key: K,
    x: T,
) {
    if let Some(bucket) = map.get_mut(&key) {
        if bucket.remove(x) {
            map.remove(&key);
        }
    }
}

impl GraphIndexes {
    /// Register a vertex under `label`.
    pub(crate) fn add_label(&mut self, label: Symbol, v: VertexId) {
        self.label.entry(label).or_default().push(v);
    }

    /// Unregister a vertex from `label`.
    pub(crate) fn remove_label(&mut self, label: Symbol, v: VertexId) {
        bucket_remove(&mut self.label, label, v);
    }

    /// Register an edge; returns the source's out-degree *before* the
    /// insert (the cardinality catalog's histogram delta, fused here so
    /// the hot path pays one adjacency lookup, not two).
    pub(crate) fn add_edge(
        &mut self,
        e: EdgeId,
        src: VertexId,
        dst: VertexId,
        ty: Symbol,
    ) -> usize {
        self.ty.entry(ty).or_default().push(e);
        let out = self.out.entry(src).or_default();
        let old_out = out.items.len();
        out.push(e);
        self.inc.entry(dst).or_default().push(e);
        old_out
    }

    /// Unregister an edge; returns the source's out-degree *before* the
    /// removal.
    pub(crate) fn remove_edge(
        &mut self,
        e: EdgeId,
        src: VertexId,
        dst: VertexId,
        ty: Symbol,
    ) -> usize {
        bucket_remove(&mut self.ty, ty, e);
        let mut old_out = 0;
        if let Some(bucket) = self.out.get_mut(&src) {
            old_out = bucket.items.len();
            if bucket.remove(e) {
                self.out.remove(&src);
            }
        }
        bucket_remove(&mut self.inc, dst, e);
        old_out
    }

    /// Vertices carrying `label`.
    pub(crate) fn with_label(&self, label: Symbol) -> &[VertexId] {
        self.label.get(&label).map_or(&[], |b| b.items.as_slice())
    }

    /// Does `v` carry `label`?
    pub(crate) fn has_label(&self, label: Symbol, v: VertexId) -> bool {
        self.label.get(&label).is_some_and(|b| b.contains(v))
    }

    /// Edges of type `ty`.
    pub(crate) fn with_type(&self, ty: Symbol) -> &[EdgeId] {
        self.ty.get(&ty).map_or(&[], |b| b.items.as_slice())
    }

    /// Outgoing edges of `v`.
    pub(crate) fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        self.out.get(&v).map_or(&[], |b| b.items.as_slice())
    }

    /// Incoming edges of `v`.
    pub(crate) fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        self.inc.get(&v).map_or(&[], |b| b.items.as_slice())
    }

    /// Is any property index maintained? The mutators' one branch.
    #[inline]
    pub(crate) fn has_prop_indexes(&self) -> bool {
        !self.prop.is_empty()
    }

    /// File (`insert`) or unfile vertex `v`, which carries `labels` and
    /// `props`, in every property index that covers it.
    #[inline]
    pub(crate) fn prop_vertex(
        &mut self,
        labels: &[Symbol],
        props: &Properties,
        v: VertexId,
        insert: bool,
    ) {
        if !self.has_prop_indexes() {
            return;
        }
        for &l in labels {
            for (k, value) in props.iter() {
                if insert {
                    self.prop_insert(l, k, value, v);
                } else {
                    self.prop_remove(l, k, value, v);
                }
            }
        }
    }

    /// Is `(label, key)` indexed?
    pub(crate) fn has_prop(&self, label: Symbol, key: Symbol) -> bool {
        self.prop.contains_key(&(label, key))
    }

    /// Start maintaining `(label, key)`, filled from the label's extent
    /// (`value_of` reads a vertex's value of `key`). A no-op when the
    /// index exists.
    pub(crate) fn ensure_prop<'a>(
        &mut self,
        label: Symbol,
        key: Symbol,
        value_of: impl Fn(VertexId) -> Option<&'a Value>,
    ) {
        if self.has_prop(label, key) {
            return;
        }
        let mut ix = FxHashMap::default();
        for &v in self.with_label(label) {
            if let Some(value) = value_of(v) {
                file(&mut ix, value, v);
            }
        }
        self.prop.insert((label, key), ix);
    }

    /// File `v` under `value` if `(label, key)` is indexed.
    pub(crate) fn prop_insert(&mut self, label: Symbol, key: Symbol, value: &Value, v: VertexId) {
        if let Some(ix) = self.prop.get_mut(&(label, key)) {
            file(ix, value, v);
        }
    }

    /// Unfile `v` from `value` if `(label, key)` is indexed.
    pub(crate) fn prop_remove(&mut self, label: Symbol, key: Symbol, value: &Value, v: VertexId) {
        let (Some(ix), Some(k)) = (self.prop.get_mut(&(label, key)), prop_key(value)) else {
            return;
        };
        let emptied = match ix.get_mut(&k) {
            Some(Holders::One(only)) => *only == v,
            Some(Holders::Many(bucket)) => bucket.remove(v),
            None => false,
        };
        if emptied {
            ix.remove(&k);
        }
    }

    /// Candidates for `label.key = value`: a superset of the vertices
    /// whose stored value `cypher_eq`s `value`. `None` when the index
    /// does not exist or cannot answer for this value (scan instead).
    pub(crate) fn prop_seek(
        &self,
        label: Symbol,
        key: Symbol,
        value: &Value,
    ) -> Option<&[VertexId]> {
        let ix = self.prop.get(&(label, key))?;
        if value.is_null() {
            return Some(&[]); // `x = null` is never true
        }
        let k = prop_key(value)?;
        Some(ix.get(&k).map_or(&[], Holders::as_slice))
    }

    /// Every property index as `(label, key, vertices filed)`.
    pub(crate) fn prop_indexes(&self) -> impl Iterator<Item = (Symbol, Symbol, usize)> + '_ {
        self.prop
            .iter()
            .map(|(&(l, k), ix)| (l, k, ix.values().map(|h| h.as_slice().len()).sum()))
    }

    /// One index's content in comparable form (sorted), for audits.
    pub(crate) fn prop_dump(&self, label: Symbol, key: Symbol) -> Vec<(Value, Vec<VertexId>)> {
        let mut out: Vec<(Value, Vec<VertexId>)> = self
            .prop
            .get(&(label, key))
            .into_iter()
            .flatten()
            .map(|(k, h)| {
                let mut ids = h.as_slice().to_vec();
                ids.sort_unstable();
                (k.clone(), ids)
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Labels currently indexing at least one vertex.
    pub(crate) fn labels(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.label.keys().copied()
    }

    /// Edge types currently indexing at least one edge.
    pub(crate) fn types(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.ty.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn label_index_roundtrip() {
        let mut ix = GraphIndexes::default();
        ix.add_label(sym("Post"), VertexId(1));
        ix.add_label(sym("Post"), VertexId(2));
        assert_eq!(ix.with_label(sym("Post")).len(), 2);
        ix.remove_label(sym("Post"), VertexId(1));
        assert_eq!(ix.with_label(sym("Post")), &[VertexId(2)]);
        assert!(ix.with_label(sym("Comm")).is_empty());
    }

    #[test]
    fn edge_indexes_roundtrip() {
        let mut ix = GraphIndexes::default();
        ix.add_edge(EdgeId(5), VertexId(1), VertexId(2), sym("REPLY"));
        assert_eq!(ix.with_type(sym("REPLY")), &[EdgeId(5)]);
        assert_eq!(ix.out_edges(VertexId(1)), &[EdgeId(5)]);
        assert_eq!(ix.in_edges(VertexId(2)), &[EdgeId(5)]);
        ix.remove_edge(EdgeId(5), VertexId(1), VertexId(2), sym("REPLY"));
        assert!(ix.with_type(sym("REPLY")).is_empty());
        assert!(ix.out_edges(VertexId(1)).is_empty());
        assert!(ix.in_edges(VertexId(2)).is_empty());
    }

    #[test]
    fn emptied_buckets_are_dropped() {
        let mut ix = GraphIndexes::default();
        ix.add_label(sym("Post"), VertexId(1));
        ix.add_edge(EdgeId(7), VertexId(1), VertexId(2), sym("REPLY"));
        assert_eq!(ix.labels().count(), 1);
        assert_eq!(ix.types().count(), 1);
        ix.remove_label(sym("Post"), VertexId(1));
        ix.remove_edge(EdgeId(7), VertexId(1), VertexId(2), sym("REPLY"));
        // No lingering empty buckets — churn must not leak index entries.
        assert_eq!(ix.labels().count(), 0);
        assert_eq!(ix.types().count(), 0);
        assert_eq!(ix.out.len(), 0);
        assert_eq!(ix.inc.len(), 0);
        assert_eq!(ix.label.len(), 0);
        assert_eq!(ix.ty.len(), 0);
    }

    #[test]
    fn swap_remove_backlink_stays_consistent() {
        let mut ix = GraphIndexes::default();
        for i in 1..=5 {
            ix.add_label(sym("X"), VertexId(i));
        }
        // Remove from the middle: the last element is swapped in; its
        // backlink must follow so a later removal still works.
        ix.remove_label(sym("X"), VertexId(2));
        ix.remove_label(sym("X"), VertexId(5)); // the swapped-in one
        let mut left = ix.with_label(sym("X")).to_vec();
        left.sort_unstable();
        assert_eq!(left, vec![VertexId(1), VertexId(3), VertexId(4)]);
        // Removing something absent is a no-op.
        ix.remove_label(sym("X"), VertexId(99));
        assert_eq!(ix.with_label(sym("X")).len(), 3);
    }

    #[test]
    fn prop_index_files_seeks_and_unfiles() {
        let (l, k) = (sym("Person"), sym("id"));
        let mut ix = GraphIndexes::default();
        let stored = [Value::Int(7), Value::float(7.0), Value::str("7")];
        for (i, _) in stored.iter().enumerate() {
            ix.add_label(l, VertexId(i as u64));
        }
        // Unindexed: mutator hooks are no-ops and nothing can be sought.
        ix.prop_insert(l, k, &Value::Int(1), VertexId(9));
        assert!(!ix.has_prop_indexes());
        assert_eq!(ix.prop_seek(l, k, &Value::Int(1)), None);

        ix.ensure_prop(l, k, |v| stored.get(v.0 as usize));
        assert!(ix.has_prop(l, k));
        // `7` and `7.0` are cypher-equal and share a bucket; '7' is not.
        let mut sevens = ix.prop_seek(l, k, &Value::Int(7)).unwrap().to_vec();
        sevens.sort_unstable();
        assert_eq!(sevens, vec![VertexId(0), VertexId(1)]);
        assert_eq!(ix.prop_seek(l, k, &Value::float(7.0)).unwrap().len(), 2);
        assert_eq!(
            ix.prop_seek(l, k, &Value::str("7")).unwrap(),
            &[VertexId(2)]
        );
        // Absent values and null answer "nobody"; lists cannot be asked.
        assert!(ix.prop_seek(l, k, &Value::Int(8)).unwrap().is_empty());
        assert!(ix.prop_seek(l, k, &Value::Null).unwrap().is_empty());
        assert_eq!(ix.prop_seek(l, k, &Value::list(vec![])), None);
        assert_eq!(ix.prop_indexes().collect::<Vec<_>>(), vec![(l, k, 3)]);

        // A shared value shrinks back holder by holder; emptied values
        // leave no entry, the index itself stays.
        ix.prop_remove(l, k, &Value::Int(7), VertexId(0));
        assert_eq!(ix.prop_seek(l, k, &Value::Int(7)).unwrap(), &[VertexId(1)]);
        ix.prop_remove(l, k, &Value::float(7.0), VertexId(1));
        ix.prop_remove(l, k, &Value::str("7"), VertexId(2));
        ix.prop_remove(l, k, &Value::str("7"), VertexId(2)); // absent: no-op
        assert!(ix.prop_dump(l, k).is_empty());
        assert!(ix.has_prop(l, k));
    }
}
