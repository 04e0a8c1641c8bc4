//! The result-order kernel (`pgq_common::order`): sorting by normalized
//! key puts every bag in exactly the order a comparison sort by
//! `cmp_rows` gives, and rows whose keys differ are never compared.

use std::cell::Cell;
use std::cmp::Ordering;

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::order::{cmp_rows, sort_rows, sort_rows_with};
use pgq_common::path::PathValue;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use proptest::prelude::*;

const P53: i64 = 1 << 53;

/// Integers around 2⁵³ and at the ends of `i64`. 2⁵³ and 2⁵³ + 1 share
/// one `f64` (so one key), as do 2⁵³ + 3 and the float 2⁵³ + 4.
const BIG_INTS: [i64; 7] = [P53, P53 + 1, P53 + 2, P53 + 3, -P53 - 1, i64::MAX, i64::MIN];

/// Floats next to [`BIG_INTS`], among them 2⁵³, which 2⁵³ + 1 rounds
/// to as well: `total_cmp` compares an integer and a float by exact
/// value, so a float that shares its `f64` with two integers ties with
/// at most one of them.
const BIG_FLOATS: [f64; 6] = [
    P53 as f64,
    (P53 + 2) as f64,
    (P53 + 4) as f64,
    i64::MAX as f64,
    i64::MIN as f64,
    (P53 - 1) as f64,
];

/// Strings that share their first seven bytes or more, inline (≤ 14
/// bytes) and on the heap.
const STRS: [&str; 9] = [
    "",
    "abc",
    "abcdefg",
    "abcdefg\0",
    "abcdefgh",
    "abcdefgX",
    "abcdefghijklmn",
    "abcdefghijklmnopq",
    "abcdefghijklmnopr",
];

/// Ids below, at and above 2⁵⁶, where the key saturates.
const IDS: [u64; 6] = [0, 7, (1 << 56) - 1, 1 << 56, (1 << 56) + 1, u64::MAX];

fn atom() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..4).prop_map(Value::Int),
        (-6i64..7).prop_map(|h| Value::float(h as f64 / 2.0)),
        (0..BIG_INTS.len()).prop_map(|i| Value::Int(BIG_INTS[i])),
        (0..BIG_FLOATS.len()).prop_map(|i| Value::float(BIG_FLOATS[i])),
        (0..6usize).prop_map(|i| Value::float(
            [
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY
            ][i]
        )),
        (0..STRS.len()).prop_map(|i| Value::str(STRS[i])),
        (0..IDS.len()).prop_map(|i| Value::Node(VertexId(IDS[i]))),
        (0..IDS.len()).prop_map(|i| Value::Rel(EdgeId(IDS[i]))),
        (0..3u64).prop_map(|v| Value::path(PathValue::single(VertexId(v)))),
    ]
}

/// Atoms, and lists and maps of small numbers, where an integer and an
/// equal float tie inside a collection.
fn value() -> impl Strategy<Value = Value> {
    let num = || {
        prop_oneof![
            (0i64..2).prop_map(Value::Int),
            (0i64..2).prop_map(|i| Value::float(i as f64)),
        ]
    };
    prop_oneof![
        atom(),
        proptest::collection::vec(num(), 0..3).prop_map(Value::list),
        num().prop_map(|v| Value::map([("k".to_string(), v)])),
    ]
}

/// Bags the radix sort takes — the bits in which their keys differ and
/// a row's index fit in 64 — of 49 to 120 rows from a pool of at most
/// 12: a node, a second column of one kind a bag (integers and equal
/// floats, two-byte strings, nodes or booleans), then any values, which
/// only the comparator sees.
fn radix_bag() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let row = (
        0..40u64,
        any::<u64>(),
        proptest::collection::vec(value(), 0..3),
    );
    let pool = proptest::collection::vec(row, 1..13);
    (
        0..4u64,
        pool,
        proptest::collection::vec(any::<usize>(), 49..121),
    )
        .prop_map(|(kind, pool, picks)| {
            let second = |r: u64| match kind {
                0 if r.is_multiple_of(2) => Value::Int((r / 2 % 4) as i64),
                0 => Value::float((r / 2 % 4) as f64),
                1 => Value::str(["en", "de", "fr", "hu"][(r % 4) as usize]),
                2 => Value::Node(VertexId(r % 40)),
                _ => Value::Bool(r.is_multiple_of(2)),
            };
            let pool: Vec<Vec<Value>> = pool
                .into_iter()
                .map(|(id, r, rest)| {
                    [Value::Node(VertexId(id)), second(r)]
                        .into_iter()
                        .chain(rest)
                        .collect()
                })
                .collect();
            picks.iter().map(|i| pool[i % pool.len()].clone()).collect()
        })
}

/// Bags of up to 120 rows of arity 0 to 4 (one arity a bag, or each
/// row its own), drawn from a pool of at most 12 rows so that rows
/// repeat and tie.
fn bag_of(value: impl Strategy<Value = Value>) -> impl Strategy<Value = Vec<Vec<Value>>> {
    let pool =
        proptest::collection::vec((proptest::collection::vec(value, 4..5), 0..5usize), 1..13);
    (
        pool,
        0..6usize,
        proptest::collection::vec(any::<usize>(), 0..121),
    )
        .prop_map(|(pool, arity, picks)| {
            let pool: Vec<Vec<Value>> = pool
                .into_iter()
                .map(|(mut row, own)| {
                    row.truncate(if arity < 5 { arity } else { own });
                    row
                })
                .collect();
            picks.iter().map(|i| pool[i % pool.len()].clone()).collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The kernel's order is the comparison sort's, row for row.
    #[test]
    fn kernel_sorts_as_the_comparator_does(rows in bag_of(value())) {
        let mut want = rows.clone();
        want.sort_by(|a, b| cmp_rows(a, b));
        prop_assert_eq!(sort_rows(rows, |r| r), want);
    }

    /// The same over bags the radix sort takes.
    #[test]
    fn radix_sorted_bags_sort_as_the_comparator_does(rows in radix_bag()) {
        let mut want = rows.clone();
        want.sort_by(|a, b| cmp_rows(a, b));
        prop_assert_eq!(sort_rows(rows, |r| r), want);
    }

    /// Where `total_cmp` tells every two distinct rows apart, the order
    /// is `total_cmp`'s; where it ties them, `cmp_rows` is a value
    /// list's `strict_cmp`.
    #[test]
    fn the_order_refines_total_cmp(rows in bag_of(value())) {
        let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
        let mut distinct = tuples.clone();
        distinct.sort_by(|a, b| cmp_rows(a, b));
        distinct.dedup();
        for a in &distinct {
            for b in &distinct {
                let (strict, total) = (cmp_rows(a, b), a.total_cmp(b));
                prop_assert!(total.is_eq() || strict == total);
                prop_assert_eq!(strict.is_eq(), a == b);
                prop_assert_eq!(
                    strict,
                    Value::list(a.to_vec()).strict_cmp(&Value::list(b.to_vec()))
                );
            }
        }
        let strict = distinct.iter().enumerate().all(|(i, a)| {
            distinct[i + 1..].iter().all(|b| a.total_cmp(b).is_ne())
        });
        if strict {
            let mut want = tuples.clone();
            want.sort_by(Tuple::total_cmp);
            prop_assert_eq!(sort_rows(tuples, |t| t), want);
        }
    }
}

/// `n` distinct `(Node, Node)` rows over ids up to `span`, shuffled.
fn node_pairs(n: u64, span: u64) -> Vec<Vec<Value>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let (a, b) = (i % span.min(n), i / span.min(n));
            vec![Value::Node(VertexId(a)), Value::Node(VertexId(b))]
        })
        .collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    rows
}

/// Sort `rows` through the kernel, counting the tie comparator's calls.
fn sort_counting(rows: Vec<Vec<Value>>) -> (Vec<Vec<Value>>, usize) {
    let calls = Cell::new(0);
    let sorted = sort_rows_with(
        rows,
        |r| r,
        |a: &[Value], b: &[Value]| -> Ordering {
            calls.set(calls.get() + 1);
            cmp_rows(a, b)
        },
    );
    (sorted, calls.get())
}

/// Distinct `(Node, Node)` rows differ in their keys, so none is ever
/// compared: not by radix (5 000 rows), not in the small sort (20).
#[test]
fn distinct_node_pairs_sort_without_a_comparison() {
    for (n, span) in [(5_000, 128), (5_000, 5_000), (20, 4)] {
        let rows = node_pairs(n, span);
        let mut want = rows.clone();
        want.sort_by(|a, b| cmp_rows(a, b));
        let (got, calls) = sort_counting(rows);
        assert_eq!(got, want, "{n} rows");
        assert_eq!(calls, 0, "{n} rows over {span} ids");
    }
}

/// The counter does count: three-column rows that share their first two
/// columns are told apart by the comparator alone.
#[test]
fn rows_equal_in_their_key_columns_are_compared() {
    let rows: Vec<Vec<Value>> = (0..100)
        .rev()
        .map(|i| vec![Value::Int(1), Value::str("k"), Value::Int(i)])
        .collect();
    let (got, calls) = sort_counting(rows);
    assert!(calls >= 99, "{calls} comparisons");
    assert!(got.windows(2).all(|w| cmp_rows(&w[0], &w[1]).is_lt()));
}

/// `(1.0, 2⁵³)`, `(1, 2⁵³ + 1)` and `(1, 2⁵³ as float)` sort to one order
/// from each of their six permutations. Had `total_cmp` compared an
/// integer with a float through `as f64`, they would compare a < b <
/// c < a, and their order would depend on the input's.
#[test]
fn rows_past_2_53_sort_to_one_order() {
    let rows = [
        vec![Value::float(1.0), Value::Int(P53)],
        vec![Value::Int(1), Value::Int(P53 + 1)],
        vec![Value::Int(1), Value::float(P53 as f64)],
    ];
    let (a, b, c) = (&rows[0], &rows[1], &rows[2]);
    assert!(cmp_rows(c, a).is_lt() && cmp_rows(a, b).is_lt() && cmp_rows(c, b).is_lt());
    for perm in [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        let bag: Vec<Vec<Value>> = perm.iter().map(|&i| rows[i].clone()).collect();
        let mut compared = bag.clone();
        compared.sort_by(|a, b| cmp_rows(a, b));
        assert_eq!(compared, [c.clone(), a.clone(), b.clone()], "{perm:?}");
        assert_eq!(sort_rows(bag, |r| r), compared, "{perm:?}");
    }
}
