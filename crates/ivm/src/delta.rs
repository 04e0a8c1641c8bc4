//! Signed multisets of tuples — the currency of the dataflow.
//!
//! Classic counting-based IVM (Gupta–Mumick–Subrahmanian; Griffin–Libkin
//! bag algebra): every dataflow edge carries a `Δ = [(tuple, ±m)]`, and
//! every stateful operator keeps multiplicity maps it updates from the
//! deltas flowing through it.
//!
//! Consolidation is in-place and allocation-free for the small deltas
//! that dominate per-transaction maintenance: below a crossover the
//! entries are merged by quadratic scan inside the existing `Vec`, above
//! it a hash map takes over. Both paths produce the same deterministic
//! *first-occurrence* order; callers that need a totally sorted delta
//! (tests, report diffs) use [`Delta::consolidate_sorted`].
//!
//! Keyed state costs no heap allocation per key in the common case: an
//! [`IndexedBag`] key holding one tuple keeps it inline in its table
//! entry, a few tuples share one `Vec`, and a hot key a per-tuple map
//! (see [`IndexedBag`] for the layout). An update probes the table once.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use pgq_common::fxhash::{FxHashMap, FxHasher};
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_graph::index::{hash_join_key, join_keys_equal};

use crate::small_list::SmallList;

/// One output row on its way from an operator to a consumer.
#[derive(Clone, Copy, Debug)]
pub enum Row<'a> {
    /// A tuple the producer holds: keeping it is a refcount bump.
    Held(&'a Tuple),
    /// Values assembled in a scratch buffer: keeping them is one
    /// allocation, paid only by a consumer that keeps the row.
    Assembled(&'a [Value]),
}

impl<'a> Row<'a> {
    /// The row's values.
    #[inline]
    pub fn values(self) -> &'a [Value] {
        match self {
            Row::Held(t) => t,
            Row::Assembled(v) => v,
        }
    }

    /// The row as an owned tuple.
    #[inline]
    pub fn to_tuple(self) -> Tuple {
        match self {
            Row::Held(t) => t.clone(),
            Row::Assembled(v) => Tuple::from_slice(v),
        }
    }
}

/// Where an operator's output rows go: a delta buffer during
/// maintenance; at registration also a σ/π/ω program in front of the
/// arrangement, result bag or memoised bag that keeps what survives it
/// (see [`crate::network`], "Full bags").
pub trait RowSink {
    /// Take `row` with signed multiplicity `mult`.
    fn push_row(&mut self, row: Row<'_>, mult: i64);
}

impl RowSink for Delta {
    #[inline]
    fn push_row(&mut self, row: Row<'_>, mult: i64) {
        self.push(row.to_tuple(), mult);
    }
}

impl RowSink for IndexedBag {
    fn push_row(&mut self, row: Row<'_>, mult: i64) {
        self.update(&row.to_tuple(), mult);
    }
}

/// A view's result bag: rows are summed per tuple, and a row already
/// present is found by its values without building a tuple.
impl RowSink for FxHashMap<Tuple, i64> {
    fn push_row(&mut self, row: Row<'_>, mult: i64) {
        match self.get_mut(row.values()) {
            Some(m) => {
                *m += mult;
                if *m == 0 {
                    self.remove(row.values());
                }
            }
            None if mult != 0 => {
                self.insert(row.to_tuple(), mult);
            }
            None => {}
        }
    }
}

/// Below this raw length [`Delta::consolidate`] merges by quadratic scan
/// in place; above it, through a hash map. Small deltas are the common
/// case per transaction, and 32² tuple comparisons beat a map allocation.
const CONSOLIDATE_HASH_CROSSOVER: usize = 32;

/// A signed multiset of tuples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    entries: Vec<(Tuple, i64)>,
}

impl Delta {
    /// Empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Empty delta with room for `n` entries.
    pub fn with_capacity(n: usize) -> Delta {
        Delta {
            entries: Vec::with_capacity(n),
        }
    }

    /// Reserve room for `n` more entries.
    pub fn reserve(&mut self, n: usize) {
        self.entries.reserve(n);
    }

    /// Is there anything in it (before consolidation)?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of raw entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Add `tuple` with signed multiplicity `mult`.
    pub fn push(&mut self, tuple: Tuple, mult: i64) {
        if mult != 0 {
            self.entries.push((tuple, mult));
        }
    }

    /// Append another delta.
    pub fn extend(&mut self, other: Delta) {
        self.entries.extend(other.entries);
    }

    /// Iterate raw entries.
    pub fn iter(&self) -> impl Iterator<Item = &(Tuple, i64)> {
        self.entries.iter()
    }

    /// Borrow the raw entries.
    pub fn entries(&self) -> &[(Tuple, i64)] {
        &self.entries
    }

    /// Drop all entries, keeping the allocation (pool reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Sum multiplicities per tuple and drop zeros, keeping the first
    /// occurrence's position (deterministic, but not sorted — see
    /// [`Delta::consolidate_sorted`]).
    pub fn consolidate(mut self) -> Delta {
        self.consolidate_in_place();
        self
    }

    /// [`Delta::consolidate`] without consuming the delta (the network's
    /// pooled buffers are consolidated in place between operators).
    pub fn consolidate_in_place(&mut self) {
        let entries = &mut self.entries;
        if entries.len() <= 1 {
            entries.retain(|(_, m)| *m != 0);
            return;
        }
        if entries.len() <= CONSOLIDATE_HASH_CROSSOVER {
            // In-place quadratic merge: no allocation at all.
            let mut write = 0usize;
            for read in 0..entries.len() {
                match (0..write).find(|&j| entries[j].0 == entries[read].0) {
                    Some(j) => entries[j].1 += entries[read].1,
                    None => {
                        entries.swap(write, read);
                        write += 1;
                    }
                }
            }
            entries.truncate(write);
        } else {
            // Hash path: index of each tuple's first occurrence.
            let mut index: FxHashMap<Tuple, usize> = FxHashMap::default();
            index.reserve(entries.len());
            let mut write = 0usize;
            for read in 0..entries.len() {
                match index.entry(entries[read].0.clone()) {
                    Entry::Occupied(e) => {
                        let j = *e.get();
                        entries[j].1 += entries[read].1;
                    }
                    Entry::Vacant(v) => {
                        v.insert(write);
                        entries.swap(write, read);
                        write += 1;
                    }
                }
            }
            entries.truncate(write);
        }
        entries.retain(|(_, m)| *m != 0);
    }

    /// [`Delta::consolidate`], then sort by [`Tuple::total_cmp`] (stable,
    /// so entries that compare equal keep first-occurrence order). Use
    /// where a canonical order matters: tests, golden files, reports.
    pub fn consolidate_sorted(self) -> Delta {
        let mut d = self.consolidate();
        d.entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        d
    }

    /// Consume into entries.
    pub fn into_entries(self) -> Vec<(Tuple, i64)> {
        self.entries
    }
}

impl FromIterator<(Tuple, i64)> for Delta {
    fn from_iter<T: IntoIterator<Item = (Tuple, i64)>>(iter: T) -> Self {
        Delta {
            entries: iter.into_iter().filter(|(_, m)| *m != 0).collect(),
        }
    }
}

/// A hash bucket spills from a linear list to a per-tuple map beyond
/// this many distinct tuples. Join keys overwhelmingly have small
/// fan-out: one tuple sits inline in the bucket itself, two to eight
/// share one `Vec`, which avoids the per-bucket map allocation and beats
/// it on scan locality; hot keys (deep threads, popular posts) get O(1)
/// updates from the map.
const BUCKET_SPILL: usize = 8;

/// One key-hash bucket of an [`IndexedBag`] — also, on its own, a small
/// multiplicity-counted tuple bag (the ⋈* operator keeps one per anchor).
#[derive(Clone, Debug)]
pub(crate) enum Bucket {
    /// Small fan-out: linear scan; one tuple is held inline.
    Small(SmallList<(Tuple, i64)>),
    /// Large fan-out: per-tuple multiplicity map.
    Large(FxHashMap<Tuple, i64>),
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket::Small(SmallList::Empty)
    }
}

impl Bucket {
    /// Apply one signed update (`mult ≠ 0`); returns the change in
    /// distinct-tuple count (−1, 0, or +1).
    pub(crate) fn update(&mut self, tuple: &Tuple, mult: i64) -> i64 {
        debug_assert_ne!(mult, 0);
        match self {
            Bucket::Small(list) => {
                if let Some(pos) = list.iter().position(|(t, _)| t == tuple) {
                    list[pos].1 += mult;
                    if list[pos].1 == 0 {
                        list.swap_remove(pos);
                        -1
                    } else {
                        0
                    }
                } else {
                    if list.len() >= BUCKET_SPILL {
                        let mut m: FxHashMap<Tuple, i64> = list.iter().cloned().collect();
                        m.insert(tuple.clone(), mult);
                        *self = Bucket::Large(m);
                    } else {
                        list.push((tuple.clone(), mult));
                    }
                    1
                }
            }
            Bucket::Large(m) => {
                // One probe: `entry` takes an owned key, and a refcount
                // bump is cheaper than probing again to remove or insert.
                match m.entry(tuple.clone()) {
                    Entry::Occupied(mut e) => {
                        *e.get_mut() += mult;
                        if *e.get() == 0 {
                            e.remove();
                            -1
                        } else {
                            0
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(mult);
                        1
                    }
                }
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            Bucket::Small(list) => list.is_empty(),
            Bucket::Large(m) => m.is_empty(),
        }
    }

    pub(crate) fn iter(&self) -> BucketIter<'_> {
        match self {
            Bucket::Small(v) => BucketIter::Small(v.iter()),
            Bucket::Large(m) => BucketIter::Large(m.iter()),
        }
    }
}

/// Iterator over one bucket's `(tuple, multiplicity)` entries.
pub(crate) enum BucketIter<'a> {
    Small(std::slice::Iter<'a, (Tuple, i64)>),
    Large(std::collections::hash_map::Iter<'a, Tuple, i64>),
}

impl<'a> Iterator for BucketIter<'a> {
    type Item = (&'a Tuple, i64);

    fn next(&mut self) -> Option<(&'a Tuple, i64)> {
        match self {
            BucketIter::Small(it) => it.next().map(|(t, c)| (t, *c)),
            BucketIter::Large(it) => it.next().map(|(t, c)| (t, *c)),
        }
    }
}

/// A multiplicity-counted tuple store indexed by key-column projection —
/// the index behind an arrangement (see [`crate::network`]): a node's
/// full output bag, keyed for the joins that read it.
///
/// Tuples are bucketed by the Fx hash of their projection onto
/// `key_cols` (see [`pgq_common::tuple::hash_values`]); within a hash
/// bucket an adaptive `Bucket` keeps updates cheap at both small and
/// large fan-out:
///
/// | tuples under the key | bucket held in the table entry |
/// |---|---|
/// | 1 | the `(tuple, multiplicity)` pair itself — no allocation |
/// | 2 ..= `BUCKET_SPILL` (8) | one `Vec`, scanned linearly (kept if the key shrinks back to one) |
/// | more | a per-tuple multiplicity map |
///
/// A key whose last tuple goes leaves the table. Probes hash the probing
/// tuple's own projection via [`Tuple::hash_projected`] and compare key
/// columns value-by-value, so neither [`IndexedBag::update`] nor
/// [`IndexedBag::probe`] ever materialises a key tuple.
///
/// The last `values` key columns, if any, are a value join's: they hash
/// and compare under `pgq_graph::index::join_key`, so `7` meets `7.0`
/// and a `null` there meets nothing (`key_hash`, `keys_match`). A bag
/// without them takes the plain path.
#[derive(Clone, Debug, Default)]
pub struct IndexedBag {
    /// key-projection hash -> bucket of (full tuple, multiplicity)
    by_key: FxHashMap<u64, Bucket>,
    key_cols: Vec<usize>,
    /// How many of `key_cols`, at its end, compare by value.
    values: usize,
    size: usize,
}

/// The hash a key-column projection is filed under: [`Tuple::hash_projected`]
/// when no column compares by value, else the same walk with each of the
/// last `values` columns hashed as its join key ([`hash_join_key`]).
#[inline]
pub(crate) fn key_hash(t: &Tuple, cols: &[usize], values: usize) -> u64 {
    if values == 0 {
        t.hash_projected(cols)
    } else {
        value_key_hash(t, cols, values)
    }
}

/// Do `a` at `a_cols` and `b` at `b_cols` hold one key: equal values,
/// and on the last `values` columns equal, non-null join keys
/// ([`join_keys_equal`])?
#[inline]
pub(crate) fn keys_match(
    a: &Tuple,
    a_cols: &[usize],
    b: &Tuple,
    b_cols: &[usize],
    values: usize,
) -> bool {
    if values == 0 {
        a_cols
            .iter()
            .zip(b_cols)
            .all(|(&x, &y)| a.get(x) == b.get(y))
    } else {
        value_keys_match(a, a_cols, b, b_cols, values)
    }
}

// The value-key halves of the two above, out of line: the plain path is
// inlined into every probe and join kernel, and stays small.

#[inline(never)]
fn value_key_hash(t: &Tuple, cols: &[usize], values: usize) -> u64 {
    let mut h = FxHasher::default();
    let ids = cols.len() - values;
    for &c in &cols[..ids] {
        t.get(c).hash(&mut h);
    }
    for &c in &cols[ids..] {
        hash_join_key(t.get(c), &mut h);
    }
    h.write_u64(cols.len() as u64);
    h.finish()
}

#[inline(never)]
fn value_keys_match(
    a: &Tuple,
    a_cols: &[usize],
    b: &Tuple,
    b_cols: &[usize],
    values: usize,
) -> bool {
    let ids = a_cols.len() - values;
    keys_match(a, &a_cols[..ids], b, &b_cols[..ids], 0)
        && a_cols[ids..]
            .iter()
            .zip(&b_cols[ids..])
            .all(|(&x, &y)| join_keys_equal(a.get(x), b.get(y)))
}

impl IndexedBag {
    /// New bag keyed by `key_cols`.
    pub fn new(key_cols: Vec<usize>) -> IndexedBag {
        IndexedBag::with_values(key_cols, 0)
    }

    /// New bag keyed by `key_cols`, the last `values` of which compare
    /// by value.
    pub fn with_values(key_cols: Vec<usize>, values: usize) -> IndexedBag {
        assert!(values <= key_cols.len(), "value columns are key columns");
        IndexedBag {
            by_key: FxHashMap::default(),
            key_cols,
            values,
            size: 0,
        }
    }

    /// The key columns.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// How many of the key columns, at the end, compare by value.
    pub fn value_cols(&self) -> usize {
        self.values
    }

    /// Number of distinct tuples stored.
    pub fn distinct_len(&self) -> usize {
        self.size
    }

    /// Keys held (hash buckets, strictly), and how many of them hold
    /// their tuples inline. Walks the table: for `:stats`, not for the
    /// hot path.
    pub fn key_counts(&self) -> (usize, usize) {
        let inline = self
            .by_key
            .values()
            .filter(|b| matches!(b, Bucket::Small(list) if list.is_inline()))
            .count();
        (self.by_key.len(), inline)
    }

    /// Apply one signed update: one probe of the table, whether the key
    /// is new (its tuple goes in inline), present, or emptied (it leaves
    /// through the entry the probe found).
    pub fn update(&mut self, tuple: &Tuple, mult: i64) {
        if mult == 0 {
            return;
        }
        let hash = key_hash(tuple, &self.key_cols, self.values);
        let change = match self.by_key.entry(hash) {
            Entry::Occupied(mut e) => {
                let change = e.get_mut().update(tuple, mult);
                if e.get().is_empty() {
                    e.remove();
                }
                change
            }
            Entry::Vacant(e) => {
                e.insert(Bucket::Small(SmallList::One((tuple.clone(), mult))));
                1
            }
        };
        self.size = (self.size as i64 + change) as usize;
    }

    /// Tuples whose key equals `probe.project(probe_cols)`, with
    /// multiplicities — without materialising that projection.
    pub fn probe<'a>(
        &'a self,
        probe: &'a Tuple,
        probe_cols: &'a [usize],
    ) -> impl Iterator<Item = (&'a Tuple, i64)> {
        debug_assert_eq!(probe_cols.len(), self.key_cols.len());
        let (key_cols, values) = (&self.key_cols, self.values);
        let kr = probe.key_ref(probe_cols);
        let hash = if values == 0 {
            kr.hash()
        } else {
            value_key_hash(probe, probe_cols, values)
        };
        self.by_key
            .get(&hash)
            .into_iter()
            .flat_map(Bucket::iter)
            .filter(move |(t, _)| {
                if values == 0 {
                    kr.matches_projection(t, key_cols)
                } else {
                    value_keys_match(probe, probe_cols, t, key_cols, values)
                }
            })
    }

    /// Tuples matching the standalone key tuple `key`, with
    /// multiplicities (a bag without value columns).
    pub fn get<'a>(&'a self, key: &'a Tuple) -> impl Iterator<Item = (&'a Tuple, i64)> {
        debug_assert_eq!(self.values, 0, "a standalone key is compared exactly");
        let key_cols = &self.key_cols;
        self.by_key
            .get(&key.hash_whole())
            .into_iter()
            .flat_map(Bucket::iter)
            .filter(move |(t, _)| {
                key_cols.len() == key.arity()
                    && key_cols.iter().zip(key.iter()).all(|(&a, v)| t.get(a) == v)
            })
    }

    /// Iterate all `(tuple, multiplicity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.by_key.values().flat_map(Bucket::iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::value::Value;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn consolidate_sums_and_drops_zeros() {
        let mut d = Delta::new();
        d.push(t(&[1]), 1);
        d.push(t(&[1]), 2);
        d.push(t(&[2]), 1);
        d.push(t(&[2]), -1);
        let c = d.consolidate();
        assert_eq!(c.into_entries(), vec![(t(&[1]), 3)]);
    }

    #[test]
    fn consolidate_hash_path_matches_scan_path() {
        // Build a delta crossing the hash crossover with duplicates and
        // cancellations; both paths must agree on content and order.
        let mut big = Delta::new();
        let mut small_chunks: Vec<Delta> = Vec::new();
        for i in 0..((CONSOLIDATE_HASH_CROSSOVER as i64) + 8) {
            let mut chunk = Delta::new();
            for (v, m) in [(i % 7, 1), (i % 5, -1), (i % 7, 2)] {
                big.push(t(&[v]), m);
                chunk.push(t(&[v]), m);
            }
            small_chunks.push(chunk);
        }
        // Reference: consolidate chunk sums through a plain map.
        let mut want: FxHashMap<Tuple, i64> = FxHashMap::default();
        for (tu, m) in big.iter() {
            *want.entry(tu.clone()).or_insert(0) += m;
        }
        want.retain(|_, m| *m != 0);
        let got = big.consolidate();
        assert!(!got.is_empty());
        let got_map: FxHashMap<Tuple, i64> = got.iter().map(|(tu, m)| (tu.clone(), *m)).collect();
        assert_eq!(got_map, want);
    }

    #[test]
    fn consolidate_keeps_first_occurrence_order() {
        let mut d = Delta::new();
        d.push(t(&[3]), 1);
        d.push(t(&[1]), 1);
        d.push(t(&[3]), 1);
        d.push(t(&[2]), 1);
        assert_eq!(
            d.consolidate().into_entries(),
            vec![(t(&[3]), 2), (t(&[1]), 1), (t(&[2]), 1)]
        );
    }

    #[test]
    fn consolidate_sorted_orders_by_tuple() {
        let mut d = Delta::new();
        d.push(t(&[3]), 1);
        d.push(t(&[1]), 1);
        d.push(t(&[2]), 1);
        assert_eq!(
            d.consolidate_sorted().into_entries(),
            vec![(t(&[1]), 1), (t(&[2]), 1), (t(&[3]), 1)]
        );
    }

    #[test]
    fn consolidate_does_not_merge_numerically_equal_but_distinct_tuples() {
        // Int(2) and Float(2.0) compare Equal under total_cmp but are
        // distinct tuples; consolidation must keep them apart.
        let int2: Tuple = vec![Value::Int(2)].into();
        let float2: Tuple = vec![Value::float(2.0)].into();
        let mut d = Delta::new();
        d.push(int2.clone(), 1);
        d.push(float2.clone(), 1);
        d.push(int2.clone(), 1);
        let entries = d.consolidate_sorted().into_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&(int2, 2)));
        assert!(entries.contains(&(float2, 1)));
    }

    #[test]
    fn push_ignores_zero() {
        let mut d = Delta::new();
        d.push(t(&[1]), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn indexed_bag_roundtrip() {
        let mut bag = IndexedBag::new(vec![0]);
        bag.update(&t(&[1, 10]), 2);
        bag.update(&t(&[1, 20]), 1);
        bag.update(&t(&[2, 30]), 1);
        let key = t(&[1]);
        let got: Vec<(Tuple, i64)> = bag.get(&key).map(|(t, c)| (t.clone(), c)).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(bag.distinct_len(), 3);

        bag.update(&t(&[1, 10]), -2);
        assert_eq!(bag.get(&key).count(), 1);
        assert_eq!(bag.distinct_len(), 2);
    }

    #[test]
    fn indexed_bag_probe_equals_get() {
        let mut bag = IndexedBag::new(vec![1]);
        bag.update(&t(&[10, 1]), 1);
        bag.update(&t(&[20, 1]), 3);
        bag.update(&t(&[30, 2]), 1);
        // Probe with a differently-shaped tuple whose col 0 is the key.
        let probe = t(&[1, 99]);
        let via_probe: Vec<i64> = {
            let mut v: Vec<i64> = bag.probe(&probe, &[0]).map(|(_, c)| c).collect();
            v.sort_unstable();
            v
        };
        let key = t(&[1]);
        let via_get: Vec<i64> = {
            let mut v: Vec<i64> = bag.get(&key).map(|(_, c)| c).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(via_probe, vec![1, 3]);
        assert_eq!(via_probe, via_get);
    }

    #[test]
    fn indexed_bag_empty_key_cols() {
        let mut bag = IndexedBag::new(vec![]);
        bag.update(&t(&[5]), 1);
        bag.update(&t(&[6]), 1);
        assert_eq!(bag.get(&Tuple::unit()).count(), 2);
        assert_eq!(bag.probe(&t(&[9, 9]), &[]).count(), 2);
    }

    #[test]
    fn indexed_bag_negative_multiplicities_allowed_transiently() {
        let mut bag = IndexedBag::new(vec![0]);
        bag.update(&t(&[1, 10]), -1);
        assert_eq!(bag.get(&t(&[1])).next().map(|(_, c)| c), Some(-1));
        bag.update(&t(&[1, 10]), 1);
        assert_eq!(bag.distinct_len(), 0);
    }

    #[test]
    fn indexed_bag_zero_update_is_noop() {
        let mut bag = IndexedBag::new(vec![0]);
        bag.update(&t(&[1, 10]), 0);
        assert_eq!(bag.distinct_len(), 0);
        assert_eq!(bag.iter().count(), 0);
    }
}
