//! Incremental duplicate elimination (bag → set), counting-based
//! (Gupta–Mumick–Subrahmanian): a tuple is asserted when its support count
//! rises from 0 and retracted when it falls back to 0.

use pgq_common::fxhash::FxHashMap;
use pgq_common::tuple::Tuple;

use crate::delta::{Delta, Row, RowSink};

/// δ node.
#[derive(Clone, Debug, Default)]
pub struct DistinctOp {
    counts: FxHashMap<Tuple, i64>,
}

impl DistinctOp {
    /// New empty node.
    pub fn new() -> DistinctOp {
        DistinctOp::default()
    }

    /// Distinct tuples currently supported.
    pub fn memory_tuples(&self) -> usize {
        self.counts.len()
    }

    /// Process a delta.
    pub fn on_delta(&mut self, input: Delta) -> Delta {
        let input = input.consolidate();
        let mut out = Delta::with_capacity(input.len());
        self.apply(&input, &mut out);
        out
    }

    /// Process a borrowed **consolidated** delta, appending assertion /
    /// retraction flips to `out`. (An unconsolidated input is still
    /// correct — transient zero crossings emit cancelling flips that the
    /// caller's consolidation removes — but consolidated input avoids
    /// the churn; the network consolidates every edge.)
    #[inline(never)]
    pub fn apply(&mut self, input: &Delta, out: &mut (impl RowSink + ?Sized)) {
        for (t, m) in input.iter() {
            let e = self.counts.entry(t.clone()).or_insert(0);
            let before = *e;
            *e += m;
            let after = *e;
            debug_assert!(after >= 0, "negative support for {t}");
            if before == 0 && after > 0 {
                out.push_row(Row::Held(t), 1);
            } else if before > 0 && after == 0 {
                self.counts.remove(t);
                out.push_row(Row::Held(t), -1);
            } else if after == 0 {
                self.counts.remove(t);
            }
        }
    }

    /// Reconstruct the full current output set (each supported tuple
    /// once) into `out`.
    pub fn replay_into(&self, out: &mut dyn RowSink) {
        for t in self.counts.keys() {
            out.push_row(Row::Held(t), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::value::Value;

    fn t(i: i64) -> Tuple {
        vec![Value::Int(i)].into()
    }

    #[test]
    fn assert_once_retract_at_zero() {
        let mut d = DistinctOp::new();
        let out = d.on_delta([(t(1), 2)].into_iter().collect()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(1), 1)]);
        // Going 2 → 1 emits nothing.
        let out = d.on_delta([(t(1), -1)].into_iter().collect()).consolidate();
        assert!(out.is_empty());
        // 1 → 0 retracts.
        let out = d.on_delta([(t(1), -1)].into_iter().collect()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(1), -1)]);
        assert_eq!(d.memory_tuples(), 0);
    }

    #[test]
    fn mixed_batch() {
        let mut d = DistinctOp::new();
        d.on_delta([(t(1), 1), (t(2), 1)].into_iter().collect());
        let out = d
            .on_delta([(t(1), 1), (t(2), -1), (t(3), 1)].into_iter().collect())
            .consolidate();
        let entries = out.into_entries();
        assert!(entries.contains(&(t(2), -1)));
        assert!(entries.contains(&(t(3), 1)));
        assert_eq!(entries.len(), 2);
    }
}
