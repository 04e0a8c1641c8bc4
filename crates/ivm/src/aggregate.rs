//! γ node — the paper lists aggregation as future work; this is the
//! engine's extension.
//!
//! The per-group state and what a group reads are
//! [`pgq_algebra::agg::GroupState`], shared with the one-shot evaluator;
//! every state there is self-maintainable under deletions. This file is
//! only the operator: it files each input row under its group, then
//! retracts the row it last emitted for each group the delta touched and
//! asserts the new one, and replays the emitted rows for a new reader.

use pgq_algebra::agg::GroupState;
use pgq_algebra::expr::{AggCall, ScalarExpr};
use pgq_common::fxhash::{FxHashMap, FxHashSet};
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;

use crate::delta::{Delta, Row, RowSink};

/// γ node.
#[derive(Clone, Debug)]
pub(crate) struct AggregateOp {
    group: Vec<ScalarExpr>,
    aggs: Vec<AggCall>,
    groups: FxHashMap<Tuple, Group>,
    /// One row's argument values, reused.
    args: Vec<Value>,
    /// Global aggregation (no GROUP BY) always exposes exactly one row,
    /// even over an empty input (`count(*) = 0`).
    global: bool,
    started: bool,
}

/// One group: its state and the row last emitted for it.
#[derive(Clone, Debug)]
struct Group {
    state: GroupState,
    emitted: Option<Tuple>,
}

impl Group {
    fn new(aggs: &[AggCall]) -> Group {
        Group {
            state: GroupState::new(aggs),
            emitted: None,
        }
    }

    /// Add `t`, `m` times, its argument values evaluated into `args`.
    #[inline]
    fn absorb(&mut self, aggs: &[AggCall], args: &mut Vec<Value>, t: &Tuple, m: i64) {
        args.clear();
        args.extend(
            aggs.iter()
                .filter_map(|call| call.arg.as_ref())
                .map(|e| e.eval(t).unwrap_or(Value::Null)),
        );
        self.state.add(args, m);
    }

    /// Emit the change of this group's row (under `key`) since it was
    /// last emitted; `false` when the group has no row left.
    fn flush(&mut self, key: &Tuple, global: bool, out: &mut (impl RowSink + ?Sized)) -> bool {
        let row = self.state.row(global).map(|values| {
            key.values()
                .iter()
                .cloned()
                .chain(values)
                .collect::<Tuple>()
        });
        if row != self.emitted {
            if let Some(old) = &self.emitted {
                out.push_row(Row::Held(old), -1);
            }
            if let Some(new) = &row {
                out.push_row(Row::Held(new), 1);
            }
            self.emitted = row;
        }
        self.emitted.is_some()
    }
}

impl AggregateOp {
    /// Create a γ node.
    pub(crate) fn new(group: Vec<ScalarExpr>, aggs: Vec<AggCall>) -> AggregateOp {
        let global = group.is_empty();
        AggregateOp {
            group,
            aggs,
            groups: FxHashMap::default(),
            args: Vec::new(),
            global,
            started: false,
        }
    }

    /// Groups currently materialised.
    pub(crate) fn memory_tuples(&self) -> usize {
        self.groups.len()
    }

    /// Process a borrowed delta of input rows, appending group-row
    /// retractions/assertions to `out`. Every accumulator is additive
    /// in the multiplicity, so `input` need not be consolidated.
    pub(crate) fn apply(&mut self, input: &Delta, out: &mut (impl RowSink + ?Sized)) {
        let first = !std::mem::replace(&mut self.started, true);
        let Self {
            group: keys,
            aggs,
            groups,
            args,
            global,
            ..
        } = self;
        if *global {
            // One group, keyed by the unit tuple: no key is built per
            // row and one flag replaces the dirty set.
            if input.is_empty() && !first {
                return;
            }
            let key = Tuple::unit();
            let group = groups
                .entry(key.clone())
                .or_insert_with(|| Group::new(aggs));
            for (t, m) in input.iter() {
                group.absorb(aggs, args, t, *m);
            }
            group.flush(&key, true, out);
            return;
        }

        let mut dirty: FxHashSet<Tuple> = FxHashSet::default();
        for (t, m) in input.iter() {
            let key: Tuple = keys
                .iter()
                .map(|e| e.eval(t).unwrap_or(Value::Null))
                .collect();
            groups
                .entry(key.clone())
                .or_insert_with(|| Group::new(aggs))
                .absorb(aggs, args, t, *m);
            dirty.insert(key);
        }
        for key in dirty {
            let group = groups.get_mut(&key).expect("a dirty group is filed");
            if !group.flush(&key, false, out) {
                groups.remove(&key);
            }
        }
    }

    /// Reconstruct the full current output bag (one row per live
    /// group) into `out`.
    pub(crate) fn replay_into(&self, out: &mut dyn RowSink) {
        for row in self.groups.values().filter_map(|g| g.emitted.as_ref()) {
            out.push_row(Row::Held(row), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_algebra::expr::AggFunc;

    /// One network step: `apply` on the consolidated input, as the
    /// network feeds it.
    fn step(op: &mut AggregateOp, input: Delta) -> Delta {
        let mut out = Delta::new();
        op.apply(&input.consolidate(), &mut out);
        out
    }

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
        let out = step(&mut a, Delta::new()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[Value::Int(0)]), 1)]);
        // One row arrives → 0 retracted, 1 asserted.
        let out = step(&mut a, [(t(&[Value::Int(9)]), 1)].into_iter().collect()).consolidate();
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
        let out = step(&mut a, [(row.clone(), 2)].into_iter().collect()).consolidate();
        assert_eq!(
            out.into_entries(),
            vec![(t(&[en.clone(), Value::Int(2)]), 1)]
        );
        let out = step(&mut a, [(row, -2)].into_iter().collect()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[en, Value::Int(2)]), -1)]);
        assert_eq!(a.memory_tuples(), 0);
    }

    #[test]
    fn min_survives_deletion_of_minimum() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Min, Some(0), false)]);
        step(
            &mut a,
            [(t(&[Value::Int(1)]), 1), (t(&[Value::Int(5)]), 1)]
                .into_iter()
                .collect(),
        );
        let out = step(&mut a, [(t(&[Value::Int(1)]), -1)].into_iter().collect()).consolidate();
        let entries = out.into_entries();
        assert!(entries.contains(&(t(&[Value::Int(5)]), 1)), "{entries:?}");
    }

    #[test]
    fn sum_handles_mixed_numerics_and_deletions() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Sum, Some(0), false)]);
        step(
            &mut a,
            [(t(&[Value::Int(2)]), 1), (t(&[Value::float(0.5)]), 1)]
                .into_iter()
                .collect(),
        );
        let out = step(
            &mut a,
            [(t(&[Value::float(0.5)]), -1)].into_iter().collect(),
        )
        .consolidate();
        // After removing the float, the sum is integer 2 again.
        assert!(out.into_entries().contains(&(t(&[Value::Int(2)]), 1)));
    }

    #[test]
    fn integer_sum_is_exact_and_reversible() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Sum, Some(0), false)]);
        step(&mut a, Delta::new());
        let max = t(&[Value::Int(i64::MAX)]);
        let one = t(&[Value::Int(1)]);
        let read = |out: Delta| {
            let entries = out.consolidate().into_entries();
            entries.into_iter().find(|(_, m)| *m > 0).map(|(t, _)| t)
        };
        assert_eq!(
            read(step(&mut a, [(max, 1)].into_iter().collect())),
            Some(t(&[Value::Int(i64::MAX)]))
        );
        // Past `i64::MAX` the sum reads `null`, and deleting the `1` undoes it.
        assert_eq!(
            read(step(&mut a, [(one.clone(), 1)].into_iter().collect())),
            Some(t(&[Value::Null]))
        );
        assert_eq!(
            read(step(&mut a, [(one, -1)].into_iter().collect())),
            Some(t(&[Value::Int(i64::MAX)]))
        );
    }

    #[test]
    fn count_distinct() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Count, Some(0), true)]);
        step(&mut a, Delta::new());
        let out = step(
            &mut a,
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
        step(&mut a, Delta::new());
        let out = step(
            &mut a,
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
        let out = step(&mut a, Delta::new()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[Value::Null]), 1)]);
    }

    #[test]
    fn nulls_do_not_count() {
        let mut a = AggregateOp::new(vec![], vec![call(AggFunc::Count, Some(0), false)]);
        step(&mut a, Delta::new());
        let out = step(&mut a, [(t(&[Value::Null]), 1)].into_iter().collect()).consolidate();
        assert!(out.is_empty(), "count(null) stays 0: {out:?}");
    }
}
