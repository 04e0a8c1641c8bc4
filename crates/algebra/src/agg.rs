//! γ's per-group state, written once: the dataflow network's γ node
//! maintains it under inserts and deletes, and the one-shot evaluator's
//! γ folds a read into it, so a view and a read of the same query agree
//! value for value.
//!
//! Every state is self-maintainable under deletions — a row's
//! multiplicity is signed, and adding a row with `-m` undoes adding it
//! with `m`:
//!
//! * `count(*)` reads the group's row count, `count(x)` a count of the
//!   non-null values;
//! * `sum` / `avg` keep an exact `i128` sum of the integers (a `sum`
//!   outside `i64` reads `null`) and the floats accumulated as `f × m`;
//! * `min` / `max` / `collect` and every `DISTINCT` aggregate keep a
//!   multiset of their non-null values, so a deleted extremum exposes
//!   the runner-up without a rescan. A group that is never deleted from
//!   ([`GroupState::insert_only`], a one-shot read's) needs no runner-up:
//!   its `min` / `max` keep just the extremum.
//!
//! The multiset is ordered by [`Value::strict_cmp`]: an integer and an
//! equal float are two values, the integer first. So `count(DISTINCT x)`
//! counts the rows `RETURN DISTINCT x` returns, and `min` / `max` /
//! `collect` read the same whatever order the rows arrive in.
//!
//! Which groups have a row is decided here too ([`GroupState::row`]): a
//! global γ's one group always has one (`count(*)` reads 0 over no
//! rows), a keyed group only while its row count is positive.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use pgq_common::value::Value;

use crate::expr::{AggCall, AggFunc};

/// One γ group: its signed row count and a state per aggregate call.
#[derive(Clone, Debug)]
pub struct GroupState {
    rows: i64,
    states: Vec<AggState>,
}

#[derive(Clone, Debug)]
enum AggState {
    /// `count(*)`: the group's row count is the answer.
    Rows,
    /// `count(x)`: the non-null values.
    Count(i64),
    /// `sum(x)` / `avg(x)`.
    Num(Num),
    /// `min` / `max` / `collect` and every `DISTINCT` aggregate (the
    /// flag): each non-null value with its multiplicity.
    Values(AggFunc, bool, BTreeMap<Strict, i64>),
    /// `min` / `max` of an [`insert_only`](GroupState::insert_only)
    /// group: the extremum so far.
    Extreme(AggFunc, Option<Value>),
}

/// A running `sum` / `avg`: integers add exactly, floats as `f × m`.
#[derive(Clone, Copy, Debug, Default)]
struct Num {
    ints: i128,
    floats: f64,
    /// Float values in the sum: while positive, the sum is a float.
    float_n: i64,
    n: i64,
    /// Read the average, not the sum. (A flag here, where the tag can
    /// share its byte, keeps `AggState` at 48 bytes rather than 64.)
    avg: bool,
}

/// A multiset key: a value ordered by [`Value::strict_cmp`].
#[derive(Clone, Debug, PartialEq, Eq)]
struct Strict(Value);

impl PartialOrd for Strict {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Strict {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.strict_cmp(&other.0)
    }
}

impl GroupState {
    /// An empty group of the aggregate `calls`.
    pub fn new<'a>(calls: impl IntoIterator<Item = &'a AggCall>) -> GroupState {
        GroupState {
            rows: 0,
            states: calls.into_iter().map(AggState::new).collect(),
        }
    }

    /// An empty group of the aggregate `calls` for rows that are only
    /// ever added, as a one-shot read adds them: `min` and `max` keep
    /// just the extremum under the multiset's order, the one value they
    /// read, so they hold one value per group however many rows arrive.
    pub fn insert_only<'a>(calls: impl IntoIterator<Item = &'a AggCall>) -> GroupState {
        let mut group = GroupState::new(calls);
        for state in &mut group.states {
            if let AggState::Values(func @ (AggFunc::Min | AggFunc::Max), ..) = *state {
                *state = AggState::Extreme(func, None);
            }
        }
        group
    }

    /// Add a row `m` times (`m < 0` deletes it, except from an
    /// [`insert_only`](GroupState::insert_only) group). `args` holds its
    /// argument values, one per call that takes one — every call but
    /// `count(*)` — in call order.
    #[inline]
    pub fn add(&mut self, args: &[Value], m: i64) {
        self.rows += m;
        // Without arguments every call is a `count(*)`: the row count.
        if args.is_empty() {
            return;
        }
        let takes = self.states.iter_mut();
        for (state, v) in takes.filter(|s| !matches!(s, AggState::Rows)).zip(args) {
            state.add(v, m);
        }
    }

    /// The aggregate values of the group's row, one per call, or `None`
    /// when the group has no row: a keyed group (`global` is false)
    /// whose row count fell to 0 or below.
    pub fn row(&self, global: bool) -> Option<impl Iterator<Item = Value> + '_> {
        (global || self.rows > 0).then(|| self.states.iter().map(|s| s.read(self.rows)))
    }
}

impl AggState {
    fn new(call: &AggCall) -> AggState {
        match call.func {
            AggFunc::CountStar => AggState::Rows,
            func if call.distinct
                || matches!(func, AggFunc::Min | AggFunc::Max | AggFunc::Collect) =>
            {
                AggState::Values(func, call.distinct, BTreeMap::new())
            }
            AggFunc::Count => AggState::Count(0),
            func => AggState::Num(Num::new(func)),
        }
    }

    /// Add `v`, `m` times (a `null` counts for nothing).
    fn add(&mut self, v: &Value, m: i64) {
        if v.is_null() {
            return;
        }
        match self {
            AggState::Rows => {}
            AggState::Count(n) => *n += m,
            AggState::Num(num) => num.add(v, m),
            AggState::Values(.., values) => match values.entry(Strict(v.clone())) {
                Entry::Vacant(e) => {
                    if m != 0 {
                        e.insert(m);
                    }
                }
                Entry::Occupied(mut e) => {
                    *e.get_mut() += m;
                    if *e.get() == 0 {
                        e.remove();
                    }
                }
            },
            AggState::Extreme(func, best) => {
                debug_assert!(m > 0, "an insert-only group is never deleted from");
                let want = match func {
                    AggFunc::Min => Ordering::Less,
                    _ => Ordering::Greater,
                };
                if best.as_ref().is_none_or(|b| v.strict_cmp(b) == want) {
                    *best = Some(v.clone());
                }
            }
        }
    }

    fn read(&self, rows: i64) -> Value {
        let (func, distinct, values) = match self {
            AggState::Rows => return Value::Int(rows),
            AggState::Count(n) => return Value::Int(*n),
            AggState::Num(num) => return num.read(),
            AggState::Extreme(_, best) => return best.clone().unwrap_or(Value::Null),
            AggState::Values(func, distinct, values) => (*func, *distinct, values),
        };
        // A `DISTINCT` aggregate reads each value once.
        let mut weighted = values
            .iter()
            .map(|(v, &n)| (&v.0, if distinct { 1 } else { n.max(0) }));
        match func {
            AggFunc::Min => weighted.next().map_or(Value::Null, |(v, _)| v.clone()),
            AggFunc::Max => weighted.next_back().map_or(Value::Null, |(v, _)| v.clone()),
            AggFunc::Count | AggFunc::CountStar => Value::Int(weighted.map(|(_, n)| n).sum()),
            AggFunc::Sum | AggFunc::Avg => {
                let mut num = Num::new(func);
                weighted.for_each(|(v, n)| num.add(v, n));
                num.read()
            }
            AggFunc::Collect => Value::list(
                weighted
                    .flat_map(|(v, n)| std::iter::repeat_n(v.clone(), n as usize))
                    .collect(),
            ),
        }
    }
}

impl Num {
    fn new(func: AggFunc) -> Num {
        Num {
            avg: func == AggFunc::Avg,
            ..Num::default()
        }
    }

    fn add(&mut self, v: &Value, m: i64) {
        match v {
            // Wrapping keeps the sum a group: every insert is undone by
            // its delete.
            Value::Int(i) => self.ints = self.ints.wrapping_add(i128::from(*i) * i128::from(m)),
            Value::Float(f) => {
                self.floats += f.get() * m as f64;
                self.float_n += m;
            }
            _ => return,
        }
        self.n += m;
    }

    /// The sum (`null` for an integer sum outside `i64`) or the average.
    fn read(&self) -> Value {
        let total = || self.ints as f64 + self.floats;
        match self.avg {
            true if self.n == 0 => Value::Null,
            true => Value::float(total() / self.n as f64),
            false if self.float_n > 0 => Value::float(total()),
            false => i64::try_from(self.ints).map_or(Value::Null, Value::Int),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;

    fn call(func: AggFunc, distinct: bool) -> AggCall {
        AggCall {
            func,
            arg: (func != AggFunc::CountStar).then(|| ScalarExpr::col(0)),
            distinct,
        }
    }

    /// The row of one group holding `rows`, each with multiplicity 1.
    fn read(calls: &[AggCall], rows: &[Value]) -> Vec<Value> {
        let mut g = GroupState::new(calls);
        let takes = calls.iter().filter(|c| c.arg.is_some()).count();
        for v in rows {
            g.add(&vec![v.clone(); takes], 1);
        }
        g.row(true).expect("a global group").collect()
    }

    #[test]
    fn an_integer_and_an_equal_float_are_two_values_in_any_order() {
        let calls = [
            call(AggFunc::Count, true),
            call(AggFunc::Collect, false),
            call(AggFunc::Min, false),
            call(AggFunc::Max, false),
        ];
        let (one, one_f) = (Value::Int(1), Value::float(1.0));
        let want = vec![
            Value::Int(2),
            Value::list(vec![one.clone(), one.clone(), one_f.clone()]),
            one.clone(),
            one_f.clone(),
        ];
        for rows in [
            [one.clone(), one_f.clone(), one.clone()],
            [one_f.clone(), one.clone(), one.clone()],
        ] {
            let got = read(&calls, &rows);
            assert_eq!(got, want);
            let mut g = GroupState::insert_only(&calls);
            for v in &rows {
                g.add(&[v.clone(), v.clone(), v.clone(), v.clone()], 1);
            }
            let inserted: Vec<Value> = g.row(true).expect("a global group").collect();
            assert_eq!(inserted, want, "a one-shot fold reads the same");
            // `==` tells them apart, so the float is really a float.
            assert!(matches!(&got[3], Value::Float(_)), "{got:?}");
        }
    }

    #[test]
    fn deletes_undo_inserts() {
        let calls = [
            call(AggFunc::CountStar, false),
            call(AggFunc::Sum, false),
            call(AggFunc::Avg, false),
            call(AggFunc::Min, false),
            call(AggFunc::Count, true),
        ];
        let mut g = GroupState::new(&calls);
        let (two, half) = (Value::Int(2), Value::float(0.5));
        g.add(&[two.clone(), two.clone(), two.clone(), two.clone()], 3);
        g.add(&[half.clone(), half.clone(), half.clone(), half.clone()], 1);
        g.add(&[half.clone(), half.clone(), half.clone(), half], -1);
        let got: Vec<Value> = g.row(false).expect("3 rows").collect();
        assert_eq!(
            got,
            vec![
                Value::Int(3),
                Value::Int(6),
                Value::float(2.0),
                two.clone(),
                Value::Int(1)
            ]
        );
        g.add(&[two.clone(), two.clone(), two.clone(), two], -3);
        assert!(g.row(false).is_none(), "a keyed group at 0 rows has no row");
        let empty: Vec<Value> = g.row(true).expect("a global group").collect();
        assert_eq!(
            empty,
            vec![
                Value::Int(0),
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Int(0)
            ]
        );
    }

    #[test]
    fn distinct_sums_read_each_value_once() {
        let rows = [Value::Int(1), Value::float(1.0), Value::Int(1), Value::Null];
        let calls = [call(AggFunc::Sum, true), call(AggFunc::Collect, true)];
        assert_eq!(
            read(&calls, &rows),
            vec![
                Value::float(2.0),
                Value::list(vec![Value::Int(1), Value::float(1.0)])
            ]
        );
    }
}
