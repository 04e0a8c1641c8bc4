//! Incremental grouping aggregation — the paper lists aggregation as
//! future work; this is the "extension" implementation.
//!
//! All aggregates here are *self-maintainable under deletions*: `count`
//! and `sum` keep invertible accumulators (an integer sum is exact, in
//! `i128`, and reads `null` while it lies outside `i64`);
//! `min`/`max`/`collect` (and all `DISTINCT` variants) keep support
//! multisets so a deleted extremum exposes the runner-up without
//! rescanning (the standard counting fix for non-distributive
//! aggregates).

use std::collections::BTreeMap;

use pgq_algebra::expr::{AggCall, AggFunc, ScalarExpr};
use pgq_common::fxhash::{FxHashMap, FxHashSet};
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;

use crate::delta::{Delta, Row, RowSink};

/// γ node.
#[derive(Clone, Debug)]
pub struct AggregateOp {
    group: Vec<ScalarExpr>,
    aggs: Vec<AggCall>,
    groups: FxHashMap<Tuple, GroupState>,
    last_output: FxHashMap<Tuple, Tuple>,
    /// Global aggregation (no GROUP BY) always exposes exactly one row,
    /// even over an empty input (`count(*) = 0`).
    global: bool,
    started: bool,
}

#[derive(Clone, Debug)]
struct GroupState {
    rows: i64,
    states: Vec<AggState>,
}

#[derive(Clone, Debug)]
enum AggState {
    Counter(i64),
    Num {
        int_sum: i128,
        float_sum: f64,
        float_n: i64,
        n: i64,
    },
    Multiset(BTreeMap<OrdValue, i64>),
}

/// `Value` wrapper ordered by [`Value::total_cmp`], so multisets have a
/// deterministic key order (min = first, max = last).
#[derive(Clone, Debug, PartialEq, Eq)]
struct OrdValue(Value);

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl GroupState {
    fn fresh(aggs: &[AggCall]) -> GroupState {
        GroupState {
            rows: 0,
            states: aggs.iter().map(fresh_state).collect(),
        }
    }

    /// Add input row `t` with signed multiplicity `m`.
    fn absorb(&mut self, aggs: &[AggCall], t: &Tuple, m: i64) {
        self.rows += m;
        for (call, state) in aggs.iter().zip(self.states.iter_mut()) {
            let value = call.arg.as_ref().map(|e| e.eval(t).unwrap_or(Value::Null));
            update_state(state, call, value.as_ref(), m);
        }
    }
}

fn fresh_state(call: &AggCall) -> AggState {
    if call.distinct {
        return AggState::Multiset(BTreeMap::new());
    }
    match call.func {
        AggFunc::Count | AggFunc::CountStar => AggState::Counter(0),
        AggFunc::Sum | AggFunc::Avg => AggState::Num {
            int_sum: 0,
            float_sum: 0.0,
            float_n: 0,
            n: 0,
        },
        AggFunc::Min | AggFunc::Max | AggFunc::Collect => AggState::Multiset(BTreeMap::new()),
    }
}

fn update_state(state: &mut AggState, call: &AggCall, value: Option<&Value>, mult: i64) {
    match state {
        AggState::Counter(c) => match call.func {
            AggFunc::CountStar => *c += mult,
            _ => {
                if value.is_some_and(|v| !v.is_null()) {
                    *c += mult;
                }
            }
        },
        AggState::Num {
            int_sum,
            float_sum,
            float_n,
            n,
        } => match value {
            Some(Value::Int(i)) => {
                // Wrapping keeps the accumulator a group: every insert
                // is undone by its delete.
                *int_sum = int_sum.wrapping_add(i128::from(*i) * i128::from(mult));
                *n += mult;
            }
            Some(Value::Float(f)) => {
                *float_sum += f.get() * mult as f64;
                *float_n += mult;
                *n += mult;
            }
            _ => {}
        },
        AggState::Multiset(set) => {
            let Some(v) = value else { return };
            if v.is_null() {
                return;
            }
            let e = set.entry(OrdValue(v.clone())).or_insert(0);
            *e += mult;
            if *e == 0 {
                set.remove(&OrdValue(v.clone()));
            }
        }
    }
}

fn read_state(state: &AggState, call: &AggCall) -> Value {
    match (state, call.func, call.distinct) {
        (AggState::Counter(c), _, _) => Value::Int(*c),
        (AggState::Multiset(s), AggFunc::Count | AggFunc::CountStar, true) => {
            Value::Int(s.len() as i64)
        }
        (AggState::Num { n: 0, .. }, AggFunc::Sum, _) => Value::Int(0),
        (
            AggState::Num {
                int_sum,
                float_sum,
                float_n,
                ..
            },
            AggFunc::Sum,
            _,
        ) => {
            if *float_n > 0 {
                Value::float(*int_sum as f64 + float_sum)
            } else {
                exact(*int_sum)
            }
        }
        (AggState::Num { n: 0, .. }, AggFunc::Avg, _) => Value::Null,
        (
            AggState::Num {
                int_sum,
                float_sum,
                n,
                ..
            },
            AggFunc::Avg,
            _,
        ) => Value::float((*int_sum as f64 + float_sum) / *n as f64),
        (AggState::Multiset(s), func @ (AggFunc::Sum | AggFunc::Avg), _) => {
            let mut int_sum = 0i128;
            let mut float_sum = 0.0f64;
            let mut floats = false;
            let mut n = 0i64;
            for v in s.keys() {
                match &v.0 {
                    Value::Int(i) => int_sum += i128::from(*i),
                    Value::Float(f) => {
                        float_sum += f.get();
                        floats = true;
                    }
                    _ => continue,
                }
                n += 1;
            }
            match func {
                AggFunc::Avg if n == 0 => Value::Null,
                AggFunc::Avg => Value::float((int_sum as f64 + float_sum) / n as f64),
                _ if floats => Value::float(int_sum as f64 + float_sum),
                _ => exact(int_sum),
            }
        }
        (AggState::Multiset(s), AggFunc::Min, _) => {
            s.keys().next().map(|v| v.0.clone()).unwrap_or(Value::Null)
        }
        (AggState::Multiset(s), AggFunc::Max, _) => s
            .keys()
            .next_back()
            .map(|v| v.0.clone())
            .unwrap_or(Value::Null),
        (AggState::Multiset(s), AggFunc::Collect, distinct) => {
            let mut items = Vec::new();
            for (v, c) in s.iter() {
                let reps = if distinct { 1 } else { (*c).max(0) as usize };
                for _ in 0..reps {
                    items.push(v.0.clone());
                }
            }
            Value::list(items)
        }
        // Impossible combinations kept total for robustness.
        (AggState::Multiset(_), AggFunc::Count | AggFunc::CountStar, false) => Value::Null,
        (AggState::Num { .. }, _, _) => Value::Null,
    }
}

/// An exact integer sum as a value: `null` outside `i64`.
fn exact(sum: i128) -> Value {
    i64::try_from(sum).map_or(Value::Null, Value::Int)
}

impl AggregateOp {
    /// Create a γ node.
    pub fn new(group: Vec<ScalarExpr>, aggs: Vec<AggCall>) -> AggregateOp {
        let global = group.is_empty();
        AggregateOp {
            group,
            aggs,
            groups: FxHashMap::default(),
            last_output: FxHashMap::default(),
            global,
            started: false,
        }
    }

    /// Groups currently materialised.
    pub fn memory_tuples(&self) -> usize {
        self.groups.len()
    }

    /// Process a delta of input rows.
    pub fn on_delta(&mut self, input: Delta) -> Delta {
        let input = input.consolidate();
        let mut out = Delta::new();
        self.apply(&input, &mut out);
        out
    }

    /// Process a borrowed delta of input rows, appending group-row
    /// retractions/assertions to `out`. Every accumulator is additive
    /// in the multiplicity, so `input` need not be consolidated.
    pub fn apply(&mut self, input: &Delta, out: &mut (impl RowSink + ?Sized)) {
        let first = !std::mem::replace(&mut self.started, true);
        if self.global {
            // One group, keyed by the unit tuple: no key is built per
            // row and one flag replaces the dirty set.
            if input.is_empty() && !first {
                return;
            }
            let aggs = &self.aggs;
            let state = self
                .groups
                .entry(Tuple::unit())
                .or_insert_with(|| GroupState::fresh(aggs));
            for (t, m) in input.iter() {
                state.absorb(aggs, t, *m);
            }
            self.flush_group(Tuple::unit(), out);
            return;
        }

        let mut dirty: FxHashSet<Tuple> = FxHashSet::default();
        for (t, m) in input.iter() {
            let key: Tuple = self
                .group
                .iter()
                .map(|e| e.eval(t).unwrap_or(Value::Null))
                .collect();
            let aggs = &self.aggs;
            self.groups
                .entry(key.clone())
                .or_insert_with(|| GroupState::fresh(aggs))
                .absorb(aggs, t, *m);
            dirty.insert(key);
        }
        for key in dirty {
            self.flush_group(key, out);
        }
    }

    /// Emit the change of group `key`'s output row since it was last
    /// emitted, dropping the state of a keyed group that ran empty.
    fn flush_group(&mut self, key: Tuple, out: &mut (impl RowSink + ?Sized)) {
        let new_output = match self.groups.get(&key) {
            Some(gs) if gs.rows > 0 || self.global => {
                let mut vals: Vec<Value> = key.values().to_vec();
                for (call, state) in self.aggs.iter().zip(gs.states.iter()) {
                    vals.push(read_state(state, call));
                }
                Some(Tuple::new(vals))
            }
            Some(_) => {
                self.groups.remove(&key);
                None
            }
            None => None,
        };
        let old_output = self.last_output.get(&key);
        if old_output == new_output.as_ref() {
            return;
        }
        if let Some(o) = old_output {
            out.push_row(Row::Held(o), -1);
        }
        match new_output {
            Some(n) => {
                out.push_row(Row::Held(&n), 1);
                self.last_output.insert(key, n);
            }
            None => {
                self.last_output.remove(&key);
            }
        }
    }

    /// Reconstruct the full current output bag (one row per live
    /// group) into `out`.
    pub fn replay_into(&self, out: &mut dyn RowSink) {
        for row in self.last_output.values() {
            out.push_row(Row::Held(row), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[Value]) -> Tuple {
        Tuple::new(vals.to_vec())
    }

    fn call(func: AggFunc, arg_col: Option<usize>, distinct: bool) -> AggCall {
        AggCall {
            func,
            arg: arg_col.map(ScalarExpr::Col),
            distinct,
        }
    }

    #[test]
    fn global_count_star_starts_at_zero() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::CountStar, None, false)]);
        let out = a.on_delta(Delta::new()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[Value::Int(0)]), 1)]);
        // One row arrives → 0 retracted, 1 asserted.
        let out = a
            .on_delta([(t(&[Value::Int(9)]), 1)].into_iter().collect())
            .consolidate();
        let entries = out.into_entries();
        assert!(entries.contains(&(t(&[Value::Int(0)]), -1)));
        assert!(entries.contains(&(t(&[Value::Int(1)]), 1)));
    }

    #[test]
    fn grouped_count_appears_and_disappears() {
        let mut a = AggregateOp::new(
            vec![ScalarExpr::col(0)],
            vec![call(AggFunc::CountStar, None, false)],
        );
        let en = Value::str("en");
        let row = t(&[en.clone(), Value::Int(1)]);
        let out = a
            .on_delta([(row.clone(), 2)].into_iter().collect())
            .consolidate();
        assert_eq!(
            out.into_entries(),
            vec![(t(&[en.clone(), Value::Int(2)]), 1)]
        );
        let out = a.on_delta([(row, -2)].into_iter().collect()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[en, Value::Int(2)]), -1)]);
        assert_eq!(a.memory_tuples(), 0);
    }

    #[test]
    fn min_survives_deletion_of_minimum() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Min, Some(0), false)]);
        a.on_delta(
            [(t(&[Value::Int(1)]), 1), (t(&[Value::Int(5)]), 1)]
                .into_iter()
                .collect(),
        );
        let out = a
            .on_delta([(t(&[Value::Int(1)]), -1)].into_iter().collect())
            .consolidate();
        let entries = out.into_entries();
        assert!(entries.contains(&(t(&[Value::Int(5)]), 1)), "{entries:?}");
    }

    #[test]
    fn sum_handles_mixed_numerics_and_deletions() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Sum, Some(0), false)]);
        a.on_delta(
            [(t(&[Value::Int(2)]), 1), (t(&[Value::float(0.5)]), 1)]
                .into_iter()
                .collect(),
        );
        let out = a
            .on_delta([(t(&[Value::float(0.5)]), -1)].into_iter().collect())
            .consolidate();
        // After removing the float, the sum is integer 2 again.
        assert!(out.into_entries().contains(&(t(&[Value::Int(2)]), 1)));
    }

    #[test]
    fn integer_sum_is_exact_and_reversible() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Sum, Some(0), false)]);
        a.on_delta(Delta::new());
        let max = t(&[Value::Int(i64::MAX)]);
        let one = t(&[Value::Int(1)]);
        let read = |out: Delta| {
            let entries = out.consolidate().into_entries();
            entries.into_iter().find(|(_, m)| *m > 0).map(|(t, _)| t)
        };
        assert_eq!(
            read(a.on_delta([(max, 1)].into_iter().collect())),
            Some(t(&[Value::Int(i64::MAX)]))
        );
        // Past `i64::MAX` the sum reads `null`, and deleting the `1` undoes it.
        assert_eq!(
            read(a.on_delta([(one.clone(), 1)].into_iter().collect())),
            Some(t(&[Value::Null]))
        );
        assert_eq!(
            read(a.on_delta([(one, -1)].into_iter().collect())),
            Some(t(&[Value::Int(i64::MAX)]))
        );
    }

    #[test]
    fn count_distinct() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Count, Some(0), true)]);
        a.on_delta(Delta::new());
        let out = a
            .on_delta(
                [
                    (t(&[Value::str("en")]), 1),
                    (t(&[Value::str("en")]), 1),
                    (t(&[Value::str("de")]), 1),
                ]
                .into_iter()
                .collect(),
            )
            .consolidate();
        assert!(out.into_entries().contains(&(t(&[Value::Int(2)]), 1)));
    }

    #[test]
    fn collect_is_sorted_and_counted() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Collect, Some(0), false)]);
        a.on_delta(Delta::new());
        let out = a
            .on_delta(
                [(t(&[Value::Int(3)]), 2), (t(&[Value::Int(1)]), 1)]
                    .into_iter()
                    .collect(),
            )
            .consolidate();
        let want = Value::list(vec![Value::Int(1), Value::Int(3), Value::Int(3)]);
        assert!(out.into_entries().contains(&(t(&[want]), 1)));
    }

    #[test]
    fn avg_of_empty_is_null() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Avg, Some(0), false)]);
        let out = a.on_delta(Delta::new()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[Value::Null]), 1)]);
    }

    #[test]
    fn nulls_do_not_count() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Count, Some(0), false)]);
        a.on_delta(Delta::new());
        let out = a
            .on_delta([(t(&[Value::Null]), 1)].into_iter().collect())
            .consolidate();
        assert!(out.is_empty(), "count(null) stays 0: {out:?}");
    }
}
