//! A compiled [`TupleProgram`] is its σ/π/ω chain: over random chains and
//! random rows, the program's output rows and multiplicities equal
//! running the chain operator by operator through the tree-walking
//! [`ScalarExpr::matches`] / [`ScalarExpr::eval`] — σ keeps a row whose
//! predicate is `true`, π evaluates each item (`null` where it fails), ω
//! appends each element of a list and drops every other value.
//!
//! The values are the awkward ones: `null`, NaN, −0.0 beside 0.0, `7`
//! beside `7.0`, strings, lists; the expressions mix comparisons, Kleene
//! connectives, `IS NULL` and arithmetic that fails on the wrong types.

use pgq_algebra::expr::ScalarExpr;
use pgq_algebra::fra::Fra;
use pgq_algebra::program::{Emit, Scratch, TupleProgram};
use pgq_common::value::Value;
use pgq_graph::index::{hash_join_key, join_key, join_keys_equal, prop_key};
use pgq_parser::ast::{BinOp, UnOp};
use proptest::prelude::*;

fn pick<T: Clone>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize].clone()
}

fn value(rng: &mut TestRng) -> Value {
    pick(
        rng,
        &[
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(7),
            Value::float(7.0),
            Value::Int(0),
            Value::float(-0.0),
            Value::float(0.0),
            Value::float(f64::NAN),
            Value::Int(-3),
            Value::str("a"),
            Value::str("ab"),
            Value::list(vec![Value::Int(1), Value::Null, Value::str("a")]),
            Value::list(vec![]),
        ],
    )
}

/// A column (usually) or a literal.
fn operand(rng: &mut TestRng, arity: usize) -> ScalarExpr {
    match rng.below(5) {
        0..=2 if arity > 0 => ScalarExpr::Col(rng.below(arity as u64) as usize),
        _ => ScalarExpr::Lit(value(rng)),
    }
}

/// A random expression over `arity` columns: arithmetic and functions
/// that fail on the wrong types, lists, and predicates.
fn expr(rng: &mut TestRng, arity: usize, depth: u32) -> ScalarExpr {
    use BinOp::*;
    if depth == 0 || rng.below(3) == 0 {
        return operand(rng, arity);
    }
    let sub = |rng: &mut TestRng| Box::new(expr(rng, arity, depth - 1));
    match rng.below(6) {
        0 | 1 => {
            let op = pick(rng, &[Add, Sub, Mul, Div, Mod, Eq, Lt, In, And, Or]);
            ScalarExpr::Binary(op, sub(rng), sub(rng))
        }
        2 => ScalarExpr::Unary(UnOp::Neg, sub(rng)),
        3 => ScalarExpr::Func {
            name: pick(rng, &["size", "head", "tostring", "abs"]).into(),
            args: vec![*sub(rng)],
        },
        4 => ScalarExpr::List(vec![*sub(rng), *sub(rng)]),
        _ => predicate(rng, arity, depth - 1),
    }
}

/// A random predicate: comparisons of columns and literals (the
/// program's own instructions) under `AND`/`OR`/`XOR`/`NOT`/`IS NULL`,
/// with now and then an arbitrary expression in an operand's place.
fn predicate(rng: &mut TestRng, arity: usize, depth: u32) -> ScalarExpr {
    use BinOp::*;
    let side = |rng: &mut TestRng| {
        Box::new(match rng.below(6) {
            0 => expr(rng, arity, 1),
            _ => operand(rng, arity),
        })
    };
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(6) {
            0 => ScalarExpr::IsNull {
                expr: side(rng),
                negated: rng.below(2) == 0,
            },
            1 => expr(rng, arity, 2),
            _ => {
                let op = pick(
                    rng,
                    &[Eq, Neq, Lt, Le, Gt, Ge, In, StartsWith, EndsWith, Contains],
                );
                ScalarExpr::Binary(op, side(rng), side(rng))
            }
        };
    }
    let sub = |rng: &mut TestRng| Box::new(predicate(rng, arity, depth - 1));
    match rng.below(4) {
        0 => ScalarExpr::Unary(UnOp::Not, sub(rng)),
        n => ScalarExpr::Binary([And, Or, Xor][n as usize - 1], sub(rng), sub(rng)),
    }
}

/// A random chain of one to four σ/π/ω over a unit input, bottom first,
/// and the arity of its input rows.
fn chain(rng: &mut TestRng) -> (Fra, usize) {
    let input_arity = 1 + rng.below(3) as usize;
    let mut arity = input_arity;
    let mut fra = Fra::Unit;
    for _ in 0..1 + rng.below(4) {
        let input = Box::new(fra);
        fra = match rng.below(3) {
            0 => Fra::Filter {
                input,
                predicate: predicate(rng, arity, 3),
            },
            1 => {
                let width = 1 + rng.below(3) as usize;
                let items = (0..width)
                    .map(|i| (expr(rng, arity, 2), format!("c{i}")))
                    .collect();
                arity = width;
                Fra::Project { input, items }
            }
            _ => {
                arity += 1;
                let list = match rng.below(3) {
                    0 => expr(rng, arity - 1, 2),
                    _ => ScalarExpr::List((0..rng.below(3)).map(|_| operand(rng, 0)).collect()),
                };
                Fra::Unwind {
                    input,
                    expr: list,
                    alias: "x".into(),
                }
            }
        };
    }
    (fra, input_arity)
}

type Rows = Vec<(Vec<Value>, i64)>;

/// The chain run operator by operator, bottom first.
fn oracle(fra: &Fra, rows: Rows) -> Rows {
    match fra {
        Fra::Unit => rows,
        Fra::Filter { input, predicate } => oracle(input, rows)
            .into_iter()
            .filter(|(r, _)| predicate.matches(r))
            .collect(),
        Fra::Project { input, items } => oracle(input, rows)
            .into_iter()
            .map(|(r, m)| {
                let projected = items
                    .iter()
                    .map(|(e, _)| e.eval(&r).unwrap_or(Value::Null))
                    .collect();
                (projected, m)
            })
            .collect(),
        Fra::Unwind { input, expr, .. } => oracle(input, rows)
            .into_iter()
            .flat_map(|(r, m)| {
                let items = match expr.eval(&r) {
                    Ok(Value::List(items)) => items.to_vec(),
                    _ => Vec::new(),
                };
                items.into_iter().map(move |item| {
                    let mut out = r.clone();
                    out.push(item);
                    (out, m)
                })
            })
            .collect(),
        other => unreachable!("not a chain operator: {other:?}"),
    }
}

fn sorted(mut rows: Rows) -> Rows {
    rows.sort_by(|(a, m), (b, n)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(a.len().cmp(&b.len()))
            .then(m.cmp(n))
    });
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000, ..ProptestConfig::default() })]

    #[test]
    fn program_equals_the_chain_operator_by_operator(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (fra, arity) = chain(&mut rng);
        let rows: Rows = (0..1 + rng.below(5))
            .map(|_| {
                let row = (0..arity).map(|_| value(&mut rng)).collect();
                (row, rng.below(7) as i64 - 3)
            })
            .collect();
        let (program, below) = TupleProgram::compile(&fra).expect("a chain");
        prop_assert_eq!(below, &Fra::Unit);

        // One scratch for every row, as a network node keeps it.
        let mut scratch = Scratch::default();
        let mut got = Rows::new();
        for (row, m) in &rows {
            program.run(row, &mut scratch, |emitted| {
                let out = match emitted {
                    Emit::Input => row.clone(),
                    Emit::Row(values) => {
                        assert!(!program.is_filter(), "a σ-only program passes its input on");
                        values.to_vec()
                    }
                };
                got.push((out, *m));
            });
        }
        let want = oracle(&fra, rows);
        prop_assert_eq!(sorted(got), sorted(want), "{} for {:?}", program, fra);
    }
}

/// An integer beside the equal float, NaN beside NaN, −0.0 beside 0.0,
/// a string beside an integer, and `null` on either side.
fn awkward_pairs() -> [(Value, Value); 12] {
    [
        (Value::Int(1), Value::float(1.0)),
        (Value::Int(1), Value::float(1.5)),
        (Value::float(f64::NAN), Value::float(f64::NAN)),
        (Value::float(f64::NAN), Value::Int(1)),
        (Value::float(-0.0), Value::float(0.0)),
        (Value::float(-0.0), Value::Int(0)),
        (Value::str("1"), Value::Int(1)),
        (Value::str("a"), Value::str("b")),
        (Value::Bool(true), Value::Bool(false)),
        (Value::Null, Value::Int(1)),
        (Value::Null, Value::Null),
        (
            Value::list(vec![Value::Int(1)]),
            Value::list(vec![Value::float(1.0)]),
        ),
    ]
}

/// The pairs a comparison's truth must get right without building a
/// value: an integer beside the equal float, NaN beside NaN, −0.0 beside
/// 0.0, a string beside an integer, and `null` on either side. For each
/// pair and each of `=`, `<>`, `<`, `<=`, `>`, `>=`, on two columns and
/// on a column and a literal, `σ[a op b]` keeps the row exactly when the
/// comparison evaluates to `true` and `σ[NOT (a op b)]` exactly when it
/// evaluates to `false`.
#[test]
fn comparisons_keep_their_truth_on_the_awkward_pairs() {
    use BinOp::*;
    let col = |i| Box::new(ScalarExpr::Col(i));
    for (a, b) in awkward_pairs() {
        for (l, r) in [(a.clone(), b.clone()), (b.clone(), a.clone())] {
            let row = vec![l.clone(), r.clone()];
            for op in [Eq, Neq, Lt, Le, Gt, Ge] {
                for rhs in [col(1), Box::new(ScalarExpr::Lit(r.clone()))] {
                    let cmp = ScalarExpr::Binary(op, col(0), rhs);
                    let want = match cmp.eval(&row) {
                        Ok(Value::Bool(t)) => Some(t),
                        _ => None,
                    };
                    let keeps = |predicate: ScalarExpr| {
                        let fra = Fra::Filter {
                            input: Box::new(Fra::Unit),
                            predicate,
                        };
                        let (program, _) = TupleProgram::compile(&fra).expect("a σ");
                        let mut kept = false;
                        program.run(&row, &mut Scratch::default(), |_| kept = true);
                        kept
                    };
                    let got = match (
                        keeps(cmp.clone()),
                        keeps(ScalarExpr::Unary(UnOp::Not, Box::new(cmp.clone()))),
                    ) {
                        (true, false) => Some(true),
                        (false, true) => Some(false),
                        (false, false) => None,
                        (true, true) => panic!("{cmp:?} is both true and false"),
                    };
                    assert_eq!(got, want, "{l:?} {op:?} {r:?}");
                }
            }
        }
    }
}

/// Every comparison has the truth of its mirror with the operands
/// swapped — `a = b` of `b = a`, `a <> b` of `b <> a`, `a < b` of
/// `b > a`, `a <= b` of `b >= a` — on the awkward pairs, two columns or a
/// column and a literal, through the tree-walking evaluator and through
/// a compiled σ alike: what lets canonicalisation write each comparison
/// one way round.
#[test]
fn mirrored_comparisons_keep_their_truth_on_the_awkward_pairs() {
    use BinOp::*;
    let truth = |e: ScalarExpr, row: &[Value]| -> (Option<bool>, bool) {
        let eval = match e.eval(row) {
            Ok(Value::Bool(t)) => Some(t),
            _ => None,
        };
        let fra = Fra::Filter {
            input: Box::new(Fra::Unit),
            predicate: e,
        };
        let (program, _) = TupleProgram::compile(&fra).expect("a σ");
        let mut kept = false;
        program.run(row, &mut Scratch::default(), |_| kept = true);
        (eval, kept)
    };
    let col = |i| Box::new(ScalarExpr::Col(i));
    for (a, b) in awkward_pairs() {
        for row in [[a.clone(), b.clone()], [b.clone(), a.clone()]] {
            for (op, mirror) in [(Eq, Eq), (Neq, Neq), (Lt, Gt), (Le, Ge), (Gt, Lt), (Ge, Le)] {
                for rhs in [col(1), Box::new(ScalarExpr::Lit(row[1].clone()))] {
                    assert_eq!(
                        truth(ScalarExpr::Binary(op, col(0), rhs.clone()), &row),
                        truth(ScalarExpr::Binary(mirror, rhs, col(0)), &row),
                        "{:?} {op:?} {:?}",
                        row[0],
                        row[1]
                    );
                }
            }
        }
    }
}

/// `prop_key` files every pair `Value::cypher_eq` equates under one key,
/// with one hash — the superset claim the property index and value joins
/// rest on — and files `null` nowhere. Over the awkward pairs, plus
/// integers no float holds exactly (`i64::MAX`, 2⁵³ + 1) beside the
/// floats they round to, which they equal under neither `cypher_eq` nor
/// `total_cmp` but share a key with. `join_key`, which value joins compare under,
/// keeps the claim and also files a list as itself.
#[test]
fn prop_key_equates_what_cypher_eq_equates() {
    use std::hash::{BuildHasher, BuildHasherDefault};
    let hash = |k: &Option<Value>| {
        BuildHasherDefault::<pgq_common::fxhash::FxHasher>::default().hash_one(k)
    };
    let big = |i: i64| (Value::Int(i), Value::float(i as f64));
    let two53 = 1i64 << 53;
    let mut pairs = awkward_pairs().to_vec();
    pairs.extend([big(i64::MAX), big(two53), big(two53 + 1)]);
    pairs.push((Value::Int(two53), Value::Int(two53 + 1)));
    pairs.push((
        Value::list(vec![Value::Int(1)]),
        Value::list(vec![Value::Int(1)]),
    ));
    let mut equated = 0;
    for (a, b) in pairs {
        for (l, r) in [(&a, &b), (&b, &a)] {
            if l.cypher_eq(r) != Some(true) {
                continue;
            }
            equated += 1;
            let mut keys = vec![("join_key", join_key(l), join_key(r))];
            // The index does not file lists.
            if !matches!(l, Value::List(_)) {
                keys.push(("prop_key", prop_key(l), prop_key(r)));
            }
            for (name, kl, kr) in keys {
                assert!(kl.is_some(), "{name}: {l:?} has a key");
                assert_eq!(kl, kr, "{name}: {l:?} = {r:?}");
                assert_eq!(hash(&kl), hash(&kr), "{name}: {l:?} = {r:?}");
            }
        }
    }
    // 1 = 1.0, NaN = NaN, −0.0 = 0.0, −0.0 = 0, 2⁵³ = 2⁵³ as a float and
    // [1] = [1], each both ways. `cypher_eq` compares an integer with a
    // float exactly, so 2⁵³ + 1 and `i64::MAX` equal no float; their keys
    // stay those of the floats they round to, a superset the σ above a
    // seek or a value join narrows.
    assert_eq!(equated, 12);
    for (int, float) in [big(two53 + 1), big(i64::MAX)] {
        assert_eq!(int.cypher_eq(&float), Some(false));
        assert_eq!(prop_key(&int), prop_key(&float));
        assert_eq!(join_key(&int), join_key(&float));
    }
    assert_eq!(prop_key(&Value::Null), None);
    assert_eq!(join_key(&Value::Null), None);
}

/// The allocation-free forms a join probe uses agree with `join_key` on
/// every pair of the awkward values: `join_keys_equal` is "both have a
/// key and it is one key", and `hash_join_key` hashes equal keys alike.
#[test]
fn join_key_forms_agree_with_join_key() {
    let hash = |v: &Value| {
        let mut h = pgq_common::fxhash::FxHasher::default();
        hash_join_key(v, &mut h);
        std::hash::Hasher::finish(&h)
    };
    let two53 = 1i64 << 53;
    let mut values: Vec<Value> = awkward_pairs()
        .into_iter()
        .flat_map(|(a, b)| [a, b])
        .collect();
    values.extend([
        Value::Int(two53),
        Value::Int(two53 + 1),
        Value::float(two53 as f64),
    ]);
    for l in &values {
        for r in &values {
            let same = join_key(l).is_some() && join_key(l) == join_key(r);
            assert_eq!(join_keys_equal(l, r), same, "{l:?} vs {r:?}");
            if same {
                assert_eq!(hash(l), hash(r), "{l:?} vs {r:?}");
            }
        }
    }
}
