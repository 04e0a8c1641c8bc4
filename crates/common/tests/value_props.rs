//! Property-based tests for the value model: algebraic laws that the
//! IVM engine's correctness silently depends on (hash/eq consistency for
//! memory keys, total-order laws for deterministic output, arithmetic
//! sanity).

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::path::PathValue;
use pgq_common::text::Text;
use pgq_common::value::Value;
use proptest::prelude::*;
use std::hash::BuildHasher;

fn atom() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::float),
        "[a-z]{0,8}".prop_map(Value::str),
        (0u64..50).prop_map(|i| Value::Node(VertexId(i))),
        (0u64..50).prop_map(|i| Value::Rel(EdgeId(i))),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    atom().prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::list),
            proptest::collection::vec(("[a-c]", inner), 0..3)
                .prop_map(|kv| Value::map(kv.into_iter())),
        ]
    })
}

fn hash_of(v: &Value) -> u64 {
    pgq_common::fxhash::FxBuildHasher::default().hash_one(v)
}

/// Characters of one to four UTF-8 bytes, so that a string's 14th byte
/// (the inline limit of [`Text`]) often falls inside a character.
const PALETTE: [char; 7] = ['a', 'z', '\0', 'é', 'ÿ', '€', '😀'];

/// Strings of 0..=40 bytes drawn from [`PALETTE`].
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PALETTE.len(), 0..41).prop_map(|ixs| {
        let mut s = String::new();
        for c in ixs.into_iter().map(|i| PALETTE[i]) {
            if s.len() + c.len_utf8() > 40 {
                break;
            }
            s.push(c);
        }
        s
    })
}

/// What a string value must agree with `str` on: its contents, its
/// FxHash (hash-map orders) and its `Debug` (plan fingerprints).
fn assert_text_is_str(s: &str) {
    let fx = pgq_common::fxhash::FxBuildHasher::default();
    let v = Value::str(s);
    assert_eq!(v.as_str(), Some(s));
    assert_eq!(v, Value::from(s.to_string()));
    assert_eq!(fx.hash_one(Text::from(s)), fx.hash_one(s), "{s:?}");
    assert_eq!(format!("{v:?}"), format!("Str({s:?})"));
    assert_eq!(v.to_string(), format!("'{s}'"));
}

#[test]
fn every_length_and_boundary_straddle_reads_as_str() {
    for n in 0..=40 {
        assert_text_is_str(&"a".repeat(n));
        for c in ['é', '€', '😀'] {
            // Puts `c` across byte 14 for every width it has.
            let s = format!("{}{c}", "a".repeat(n));
            assert_text_is_str(&s);
            assert_eq!(
                Text::from(s.as_str()).is_inline(),
                s.len() <= Text::INLINE_CAP
            );
        }
    }
}

proptest! {
    #[test]
    fn eq_implies_same_hash(a in value(), b in value()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn total_cmp_is_total_and_antisymmetric(a in value(), b in value()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn total_cmp_is_transitive(a in value(), b in value(), c in value()) {
        use std::cmp::Ordering::*;
        let mut vals = [a, b, c];
        vals.sort_by(|x, y| x.total_cmp(y));
        // After sorting, pairwise comparisons must agree with the order.
        prop_assert_ne!(vals[0].total_cmp(&vals[1]), Greater);
        prop_assert_ne!(vals[1].total_cmp(&vals[2]), Greater);
        prop_assert_ne!(vals[0].total_cmp(&vals[2]), Greater);
    }

    /// `cypher_eq` decides same-type pairs with `==` and only an integer
    /// and a float through `compare`: it must agree with `==` or
    /// `compare` deciding every pair.
    #[test]
    fn cypher_eq_is_eq_or_equal_order(a in value(), b in value()) {
        let want = match (&a, &b) {
            (Value::Null, _) | (_, Value::Null) => None,
            _ => Some(a == b || a.compare(&b) == Some(std::cmp::Ordering::Equal)),
        };
        prop_assert_eq!(a.cypher_eq(&b), want);
        prop_assert_eq!(b.cypher_eq(&a), want);
    }

    #[test]
    fn comparability_is_symmetric(a in atom(), b in atom()) {
        let ab = a.compare(&b);
        let ba = b.compare(&a);
        prop_assert_eq!(ab.map(|o| o.reverse()), ba);
    }

    #[test]
    fn int_addition_matches_i64(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let got = Value::Int(a).add(&Value::Int(b)).unwrap();
        prop_assert_eq!(got, Value::Int(a + b));
    }

    #[test]
    fn add_then_sub_roundtrips(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let sum = Value::Int(a).add(&Value::Int(b)).unwrap();
        let back = sum.sub(&Value::Int(b)).unwrap();
        prop_assert_eq!(back, Value::Int(a));
    }

    #[test]
    fn null_absorbs_arithmetic(v in atom()) {
        // Arithmetic with null is null whenever the op accepts the type.
        if let Ok(r) = v.add(&Value::Null) {
            prop_assert_eq!(r, Value::Null);
        }
        if let Ok(r) = Value::Null.mul(&v) {
            prop_assert_eq!(r, Value::Null);
        }
    }

    #[test]
    fn string_values_agree_with_str(a in text(), b in text()) {
        assert_text_is_str(&a);
        let (va, vb) = (Value::str(&a), Value::str(&b));
        prop_assert_eq!(va == vb, a == b);
        prop_assert_eq!(va.total_cmp(&vb), a.as_str().cmp(b.as_str()));
        prop_assert_eq!(va.compare(&vb), Some(a.as_str().cmp(b.as_str())));
    }

    #[test]
    fn display_is_deterministic(v in value()) {
        prop_assert_eq!(v.to_string(), v.to_string());
    }
}

proptest! {
    #[test]
    fn path_concat_is_associative(
        edges_a in proptest::collection::vec(0u64..100, 0..4),
        edges_b in proptest::collection::vec(100u64..200, 0..4),
        edges_c in proptest::collection::vec(200u64..300, 0..4),
    ) {
        // Build three chains sharing seam vertices.
        let build = |start: u64, edges: &[u64]| {
            let mut p = PathValue::single(VertexId(start));
            let mut at = start;
            for &e in edges {
                at += 1;
                p = p.extend(EdgeId(e), VertexId(at));
            }
            p
        };
        let a = build(0, &edges_a);
        let b = build(a.target().raw(), &edges_b);
        let c = build(b.target().raw(), &edges_c);
        let left = a.concat(&b).unwrap().concat(&c).unwrap();
        let right = a.concat(&b.concat(&c).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn path_extend_preserves_invariants(
        hops in proptest::collection::vec((0u64..1000, 0u64..1000), 0..8)
    ) {
        let mut p = PathValue::single(VertexId(0));
        for (e, v) in hops {
            p = p.extend(EdgeId(e), VertexId(v));
        }
        prop_assert_eq!(p.vertices().len(), p.edges().len() + 1);
        prop_assert_eq!(p.source(), VertexId(0));
    }
}

/// The pairs the same-type path of `cypher_eq` must still get right.
#[test]
fn cypher_eq_on_the_awkward_pairs() {
    let nan = Value::float(f64::NAN);
    let cases = [
        (Value::Int(1), Value::float(1.0), Some(true)),
        (Value::Int(1), Value::float(1.5), Some(false)),
        (nan.clone(), nan.clone(), Some(true)),
        (nan, Value::float(1.0), Some(false)),
        (Value::float(-0.0), Value::float(0.0), Some(true)),
        (Value::float(-0.0), Value::Int(0), Some(true)),
        (Value::str("1"), Value::Int(1), Some(false)),
        (Value::str("ab"), Value::str("ab"), Some(true)),
        (Value::Null, Value::Int(1), None),
        (Value::Null, Value::Null, None),
        (
            Value::list(vec![Value::Int(1)]),
            Value::list(vec![Value::float(1.0)]),
            Some(false),
        ),
    ];
    for (a, b, want) in cases {
        assert_eq!(a.cypher_eq(&b), want, "{a:?} = {b:?}");
        assert_eq!(b.cypher_eq(&a), want, "{b:?} = {a:?}");
    }
}
