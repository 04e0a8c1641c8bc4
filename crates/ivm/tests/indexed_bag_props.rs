//! Model-based property test: the hash-bucketed, borrowed-key
//! [`IndexedBag`] must be observationally equal to a naive
//! `FxHashMap<Tuple, i64>` model under random update/probe
//! interleavings — including transient negative multiplicities, which
//! the counting join memories rely on inside a batch — and one key
//! driven through every bucket layout (empty, one tuple inline, a short
//! list, a per-tuple map, and back) must agree with a `BTreeMap` model
//! after every step and leave no bucket behind once emptied.

use std::collections::BTreeMap;

use pgq_common::fxhash::FxHashMap;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_ivm::delta::IndexedBag;
use proptest::prelude::*;

/// Key-column variants exercised per case: single columns, multi-column
/// (including permuted), and the empty key (cross-product memory).
const KEY_SETS: &[&[usize]] = &[&[0], &[1], &[0, 2], &[], &[2, 1]];

fn tuple(a: i64, b: i64, c: i64) -> Tuple {
    [a, b, c].into_iter().map(Value::Int).collect()
}

/// Apply one signed update to the naive model.
fn model_update(model: &mut FxHashMap<Tuple, i64>, t: &Tuple, m: i64) {
    if m == 0 {
        return;
    }
    let e = model.entry(t.clone()).or_insert(0);
    *e += m;
    if *e == 0 {
        model.remove(t);
    }
}

/// The model's answer to a probe: all entries whose key columns equal the
/// probe tuple's, sorted for comparison.
fn model_probe(model: &FxHashMap<Tuple, i64>, probe: &Tuple, cols: &[usize]) -> Vec<(Tuple, i64)> {
    let mut out: Vec<(Tuple, i64)> = model
        .iter()
        .filter(|(t, _)| cols.iter().all(|&c| t.get(c) == probe.get(c)))
        .map(|(t, m)| (t.clone(), *m))
        .collect();
    out.sort_by(|x, y| x.0.total_cmp(&y.0));
    out
}

fn sorted(mut v: Vec<(Tuple, i64)>) -> Vec<(Tuple, i64)> {
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    v
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn indexed_bag_equals_naive_model(
        // (op selector, three small values, signed multiplicity): small
        // domains force key collisions, duplicate tuples, and exact
        // cancellations.
        ops in proptest::collection::vec(
            (0..4usize, 0..3i64, 0..3i64, 0..3i64, -2..3i64),
            1..80,
        ),
        key_choice in 0..KEY_SETS.len(),
    ) {
        let cols = KEY_SETS[key_choice];
        let mut bag = IndexedBag::new(cols.to_vec());
        let mut model: FxHashMap<Tuple, i64> = FxHashMap::default();

        for &(op, a, b, c, m) in &ops {
            let t = tuple(a, b, c);
            match op {
                // Weighted 3:1 towards updates so state builds up.
                0..=2 => {
                    bag.update(&t, m);
                    model_update(&mut model, &t, m);
                }
                _ => {
                    // Borrowed-key probe with `t` as the probing tuple.
                    let got = sorted(
                        bag.probe(&t, cols).map(|(x, m)| (x.clone(), m)).collect(),
                    );
                    let want = model_probe(&model, &t, cols);
                    prop_assert_eq!(got, want, "probe diverged for {}", t);
                    // Standalone-key probe must agree with the borrowed
                    // one.
                    let key = t.project(cols);
                    let got_key = sorted(
                        bag.get(&key).map(|(x, m)| (x.clone(), m)).collect(),
                    );
                    let want = model_probe(&model, &t, cols);
                    prop_assert_eq!(got_key, want, "get({}) diverged", key);
                }
            }
            prop_assert_eq!(bag.distinct_len(), model.len());
        }

        // Final state: full contents agree, and every stored key answers
        // correctly.
        let got: FxHashMap<Tuple, i64> =
            bag.iter().map(|(t, m)| (t.clone(), m)).collect();
        prop_assert_eq!(&got, &model);
        for t in model.keys() {
            let got = sorted(bag.probe(t, cols).map(|(x, m)| (x.clone(), m)).collect());
            let want = model_probe(&model, t, cols);
            prop_assert_eq!(got, want);
        }
    }
}

/// The key every lifecycle tuple shares, and a bystander key that must
/// not be disturbed.
const KEY: i64 = 7;
const BYSTANDER: i64 = 8;

/// Distinct tuples under [`KEY`]: more than a bucket's list holds
/// (`BUCKET_SPILL` = 8), so the ramp spills it to its map.
const FANOUT: i64 = 12;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn one_key_through_every_bucket_layout(
        // Scripts of `(tuple under KEY, signed multiplicity)`: growth
        // (one tuple, then a few), then churn after the ramp.
        grow in proptest::collection::vec((0..FANOUT, 1..3i64), 0..12),
        churn in proptest::collection::vec((0..FANOUT, -2..3i64), 0..60),
    ) {
        let cols = [0usize];
        let mut bag = IndexedBag::new(cols.to_vec());
        let bystander = tuple(BYSTANDER, 0, 0);
        bag.update(&bystander, 1);
        let probe = tuple(KEY, -1, -1);
        let key = probe.project(&cols);
        // Second column → multiplicity of `tuple(KEY, i, i)`.
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();

        // Phases: random growth; a ramp that adds every missing tuple
        // (the key spills to its map); random churn; a drain that
        // retracts whatever is left, so every script ends empty.
        for phase in 0..4 {
            let script: Vec<(i64, i64)> = match phase {
                0 => grow.clone(),
                1 => (0..FANOUT).filter(|i| !model.contains_key(i)).map(|i| (i, 1)).collect(),
                2 => churn.clone(),
                _ => model.iter().map(|(&i, &m)| (i, -m)).collect(),
            };
            for (i, m) in script {
                let fresh = model.is_empty();
                bag.update(&tuple(KEY, i, i), m);
                if m != 0 {
                    let e = model.entry(i).or_insert(0);
                    *e += m;
                    if *e == 0 {
                        model.remove(&i);
                    }
                }

                let want: Vec<(Tuple, i64)> =
                    model.iter().map(|(&i, &m)| (tuple(KEY, i, i), m)).collect();
                let mut all = want.clone();
                all.push((bystander.clone(), 1));
                prop_assert_eq!(bag.distinct_len(), all.len());
                let got = sorted(bag.iter().map(|(t, m)| (t.clone(), m)).collect());
                prop_assert_eq!(got, sorted(all));
                let got = sorted(bag.probe(&probe, &cols).map(|(t, m)| (t.clone(), m)).collect());
                prop_assert_eq!(got, want.clone());
                let got = sorted(bag.get(&key).map(|(t, m)| (t.clone(), m)).collect());
                prop_assert_eq!(got, want);
                // An emptied key leaves the table; a new one holds its
                // tuple inline, as the one-tuple bystander always does.
                let (keys, inline) = bag.key_counts();
                prop_assert_eq!(keys, 1 + usize::from(!model.is_empty()));
                prop_assert!(inline >= 1 && inline <= keys);
                if fresh && model.len() == 1 {
                    prop_assert_eq!(inline, 2, "a new key starts inline");
                }
            }
            if phase == 1 {
                prop_assert_eq!(model.len(), FANOUT as usize);
                prop_assert_eq!(bag.key_counts(), (2, 1), "the spilled key is not inline");
            }
        }
        prop_assert_eq!(bag.key_counts(), (1, 1));
        prop_assert_eq!(bag.distinct_len(), 1);
    }
}
