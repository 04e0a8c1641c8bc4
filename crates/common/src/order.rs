//! The engine's result order, and the kernel that sorts rows into it.
//!
//! Every read that hands rows out in a fixed order — a view's `rows()` /
//! `results()`, `pgq_eval`'s base order under `ORDER BY` and its
//! `evaluate_consolidated` — uses one order, [`cmp_rows`]:
//! [`Tuple::total_cmp`](crate::tuple::Tuple::total_cmp), then, for two
//! rows it ties that `==` tells apart, the integer before the equal
//! float at the first position where one row holds each. That is
//! [`Value::strict_cmp`]'s rule lifted to rows, so the order depends on
//! the rows alone, never on the hash map a bag was read from.
//!
//! [`sort_rows`] puts rows into that order mostly without comparing them.
//! In the pass that takes each row in, it computes the row's
//! *normalized key*, two `u64`s: the first column's key — its type rank
//! in the top byte over a 56-bit payload monotone in the value — and then
//! the second column's, or, where the first key does not pin its value
//! down, more of the first value (see `row_key`). A row before another
//! never has the greater key, so sorting the keys orders every row whose
//! key differs, and only runs of equal keys are compared, by the full
//! comparator. Distinct `(Node, Node)` rows with ids under 2⁵⁶ never
//! meet it.
//!
//! The keys are sorted by an LSD radix sort, a byte a pass, over the key
//! bits that vary, packed with each row's index into one `u64` (two node
//! ids of a 16.5k-vertex graph vary in 30 bits: four passes). Where those
//! bits do not fit — a column mixing kinds, floats, long strings — or
//! the input is small, the keys are sorted by comparison instead. A read
//! therefore costs one O(n) key pass, one O(n) pass per byte of varying
//! key bits, and the comparison sorts of the tie runs.

use std::cmp::Ordering;

use crate::ids::{EdgeId, VertexId};
use crate::value::Value;

/// The result order: [`Value::total_cmp`] lexicographically (a shorter
/// row first on a shared prefix), then, where that ties two rows, the
/// first position where one holds an integer and the other an equal
/// float (also inside lists and maps) puts the integer first.
///
/// `cmp_rows(a, b)` is `Value::list(a).strict_cmp(&Value::list(b))`.
pub fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    let pairs = || a.iter().zip(b);
    pairs()
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
        .then_with(|| {
            pairs()
                .map(|(x, y)| x.tie_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
}

/// Sort `items` by the rows `row` reads from them, in the result order
/// ([`cmp_rows`]). Each item is keyed as it is taken from `items`, so a
/// caller that clones rows out of a map clones and keys each in one
/// visit. Equal rows keep no particular order among themselves.
pub fn sort_rows<T>(items: impl IntoIterator<Item = T>, row: impl Fn(&T) -> &[Value]) -> Vec<T> {
    sort_rows_with(items, row, cmp_rows)
}

/// [`sort_rows`] with the comparator for rows whose keys tie given:
/// `tie` must order rows as [`cmp_rows`] does for the result order to
/// hold. Only rows whose normalized keys are equal reach it.
pub fn sort_rows_with<T>(
    items: impl IntoIterator<Item = T>,
    row: impl Fn(&T) -> &[Value],
    mut tie: impl FnMut(&[Value], &[Value]) -> Ordering,
) -> Vec<T> {
    let items = items.into_iter();
    let mut out: Vec<T> = Vec::with_capacity(items.size_hint().0);
    let mut keys: Vec<[u64; 2]> = Vec::with_capacity(items.size_hint().0);
    for item in items {
        keys.push(row_key(row(&item)));
        out.push(item);
    }
    if out.len() < 2 {
        return out;
    }
    let packed = if keys.len() > RADIX_MIN {
        Packed::of(&keys)
    } else {
        None
    };
    let mut order: Vec<usize> = match packed {
        Some(Packed {
            mut recs,
            ix_bits,
            top,
        }) => {
            // The records stand in for the keys: free them before the
            // radix passes, which a large read's peak memory counts.
            drop(keys);
            radix_sort(&mut recs, ix_bits..top);
            let ix = |r: u64| (r & !(u64::MAX << ix_bits)) as usize;
            for run in recs.chunk_by_mut(|a, b| a >> ix_bits == b >> ix_bits) {
                if run.len() > 1 {
                    run.sort_unstable_by(|&a, &b| tie(row(&out[ix(a)]), row(&out[ix(b)])));
                }
            }
            recs.into_iter().map(ix).collect()
        }
        None => {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_unstable_by(|&a, &b| {
                keys[a]
                    .cmp(&keys[b])
                    .then_with(|| tie(row(&out[a]), row(&out[b])))
            });
            order
        }
    };
    permute(&mut out, &mut order);
    out
}

/// Up to this many rows the keys are sorted by comparison instead of by
/// radix, whose fixed cost (a scratch buffer, a 256-entry histogram per
/// pass) only pays off above it. Measured on distinct `(Node, Node)`
/// rows of a 16.5k-vertex graph (30 varying key bits), a whole sort —
/// clone, key, sort, permute — on a 2-core x86-64 host: radix takes
/// 1.6× the comparison sort's time at 16 rows, 1.1× at 48, 0.87× at 64
/// and 0.73× at 256.
const RADIX_MIN: usize = 48;

/// The key bits that vary among a set of keys, packed with each key's
/// index into one `u64`: the first word's varying bits, then the
/// second's, then the index in the low `ix_bits`. Bits every key shares
/// order nothing, so two records compare above the index as their keys
/// do.
struct Packed {
    recs: Vec<u64>,
    ix_bits: u32,
    /// The bit above the packed key.
    top: u32,
}

impl Packed {
    /// `None` when the varying bits and the index do not fit in 64.
    fn of(keys: &[[u64; 2]]) -> Option<Packed> {
        let (mut any, mut all) = ([0u64; 2], [u64::MAX; 2]);
        for k in keys {
            for w in 0..2 {
                any[w] |= k[w];
                all[w] &= k[w];
            }
        }
        // The bits that vary in word `w`: the lowest, and how many from it.
        let span = |w: usize| match any[w] ^ all[w] {
            0 => (0, 0),
            v => (
                v.trailing_zeros(),
                64 - v.leading_zeros() - v.trailing_zeros(),
            ),
        };
        let (s0, s1) = (span(0), span(1));
        // Every index is below 2^ix_bits.
        let ix_bits = usize::BITS - keys.len().leading_zeros();
        let top = ix_bits + s0.1 + s1.1;
        if top > 64 {
            return None;
        }
        let field = |k: u64, (lo, width): (u32, u32)| {
            (k >> lo) & u64::MAX.checked_shr(64 - width).unwrap_or(0)
        };
        let recs = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (field(k[0], s0) << s1.1 | field(k[1], s1)) << ix_bits | i as u64)
            .collect();
        Some(Packed { recs, ix_bits, top })
    }
}

/// The normalized key of a row. The first word is its first column's
/// key. The second is its second column's key where the first key pins
/// the first value down (every value with that key is `total_cmp`-equal
/// to it), and otherwise more of the first value (`column_key`'s
/// refinement), since the second column cannot order rows whose first
/// values the key does not tell apart. A missing column keys as 0, below
/// every value, as a shorter row sorts first.
fn row_key(row: &[Value]) -> [u64; 2] {
    let Some(first) = row.first() else {
        return [0, 0];
    };
    let (key, refinement) = column_key(first);
    let second = refinement.unwrap_or_else(|| row.get(1).map_or(0, |v| column_key(v).0));
    [key, second]
}

/// Largest 56-bit payload.
const PAYLOAD_MAX: u64 = (1 << 56) - 1;

/// A node's type rank in a key's top byte (`Value::type_rank`).
const NODE_RANK: u64 = 1 << 56;

/// One column's key — the type rank over a 56-bit payload, such that
/// `a.total_cmp(b) == Less` implies `key(a) <= key(b)` — and, unless the
/// key pins the value down, a refinement that is monotone among the
/// values sharing the key. Whether there is a refinement depends on the
/// key alone:
///
/// * ids: the id, saturated at 2⁵⁶ − 1; the saturated ones refine by
///   the whole id;
/// * `Int` and `Float`: the top 56 bits of the value's ordered `f64`
///   bits, refined by all 64 (an `Int` through `as f64`, which is how
///   `total_cmp` compares it to a float and which rounding keeps
///   monotone between integers);
/// * `Str`: its first 6 bytes, zero-padded, then its length capped at 7;
///   one longer than 6 bytes refines by its next 8;
/// * `Bool`: 0 or 1; `Null`: 0;
/// * `Map`, `List` and `Path`: 0, refined by 0.
fn column_key(v: &Value) -> (u64, Option<u64>) {
    // A node id is tested for first, by one compare: most rows a view
    // holds start with one, and through the `match` below, which
    // compiles to an indirect jump, a node's key took three times as
    // long (x86-64).
    if let Value::Node(VertexId(id)) = v {
        if *id < PAYLOAD_MAX {
            return (NODE_RANK | id, None);
        }
    }
    let (payload, refinement) = match v {
        Value::Node(VertexId(id)) | Value::Rel(EdgeId(id)) => {
            let key = (*id).min(PAYLOAD_MAX);
            (key, (key == PAYLOAD_MAX).then_some(*id))
        }
        Value::Int(i) => float_key(*i as f64),
        Value::Float(f) => float_key(f.get()),
        Value::Str(s) => {
            let (b, mut key) = (s.as_bytes(), [0u8; 8]);
            let n = b.len().min(6);
            key[1..=n].copy_from_slice(&b[..n]);
            key[7] = b.len().min(7) as u8;
            let refinement = (b.len() > 6).then(|| {
                let mut next = [0u8; 8];
                let m = (b.len() - 6).min(8);
                next[..m].copy_from_slice(&b[6..6 + m]);
                u64::from_be_bytes(next)
            });
            (u64::from_be_bytes(key), refinement)
        }
        Value::Bool(b) => (u64::from(*b), None),
        Value::Null => (0, None),
        Value::Map(_) | Value::List(_) | Value::Path(_) => (0, Some(0)),
    };
    (u64::from(v.type_rank()) << 56 | payload, refinement)
}

/// `f`'s IEEE bits flipped into unsigned order, as `(top 56 bits, all
/// 64)`; −0.0 keys as 0.0 and every NaN above +∞, as `OrdF64` orders
/// them.
fn float_key(f: f64) -> (u64, Option<u64>) {
    let ordered = if f.is_nan() {
        u64::MAX
    } else if f == 0.0 {
        1 << 63
    } else if f.is_sign_negative() {
        !f.to_bits()
    } else {
        f.to_bits() | 1 << 63
    };
    (ordered >> 8, Some(ordered))
}

/// LSD radix sort of `recs` by their `bits`, one byte a pass.
fn radix_sort(recs: &mut Vec<u64>, bits: std::ops::Range<u32>) {
    let mut buf = vec![0u64; recs.len()];
    for shift in bits.step_by(8) {
        let digit = |r: u64| (r >> shift) as usize & 0xff;
        let mut at = [0usize; 256];
        for &r in recs.iter() {
            at[digit(r)] += 1;
        }
        let mut sum = 0;
        for slot in at.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &r in recs.iter() {
            let d = digit(r);
            buf[at[d]] = r;
            at[d] += 1;
        }
        std::mem::swap(recs, &mut buf);
    }
}

/// Reorder `items` so that position `i` holds the item `order[i]`
/// named, following each cycle of the permutation with swaps; `order`
/// is spent marking the positions done.
fn permute<T>(items: &mut [T], order: &mut [usize]) {
    const DONE: usize = usize::MAX;
    for start in 0..items.len() {
        let mut at = start;
        while order[at] != DONE {
            let from = std::mem::replace(&mut order[at], DONE);
            if from == start {
                break;
            }
            items.swap(at, from);
            at = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_keys_keep_the_total_order() {
        let vals = [
            Value::map([]),
            Value::Node(VertexId(3)),
            Value::Node(VertexId(u64::MAX)),
            Value::list(vec![]),
            Value::str(""),
            Value::str("ab"),
            Value::str("ab\0"),
            Value::str("ab\0a"),
            Value::str("abcdef"),
            Value::str("abcdef\0"),
            Value::str("abcdefg"),
            Value::str("abcdefgh"),
            Value::str("abd"),
            Value::Bool(false),
            Value::Bool(true),
            Value::float(f64::NEG_INFINITY),
            Value::Int(i64::MIN),
            Value::float(-1.5),
            Value::float(-0.0),
            Value::Int(0),
            Value::float(1.0),
            Value::Int(1),
            Value::Int(i64::MAX),
            Value::float(f64::INFINITY),
            Value::float(f64::NAN),
            Value::Null,
        ];
        for a in &vals {
            for b in &vals {
                let (ka, kb) = (column_key(a), column_key(b));
                if a.total_cmp(b).is_lt() {
                    assert!(ka.0 <= kb.0, "{a:?} vs {b:?}");
                }
                if ka.0 == kb.0 {
                    assert_eq!(ka.1.is_some(), kb.1.is_some(), "{a:?} vs {b:?}");
                    assert!(ka.1.is_some() || a.total_cmp(b).is_eq(), "{a:?} vs {b:?}");
                    assert!(!a.total_cmp(b).is_lt() || ka.1 <= kb.1, "{a:?} vs {b:?}");
                }
            }
        }
        let node = Value::Node(VertexId(3));
        assert_eq!(column_key(&node).0 >> 56, u64::from(node.type_rank()));
        assert_eq!(column_key(&Value::Int(0)), column_key(&Value::float(-0.0)));
        let inf = column_key(&Value::float(f64::INFINITY));
        assert!(inf.0 < column_key(&Value::float(f64::NAN)).0);
    }

    #[test]
    fn permute_follows_every_cycle() {
        let mut items = vec!['a', 'b', 'c', 'd', 'e'];
        permute(&mut items, &mut [3, 0, 1, 2, 4]);
        assert_eq!(items, ['d', 'a', 'b', 'c', 'e']);
    }
}
