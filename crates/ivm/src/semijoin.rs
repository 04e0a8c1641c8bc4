//! Incremental semijoin / antijoin — the Rete "negative node".
//!
//! Maintains, per join key, the *support count* of the right (existence)
//! input. A left tuple passes iff the support is positive (semijoin) or
//! zero (antijoin). Exact delta rule over bags:
//!
//! `Δ(L ⋉ R) = [L_old ⋉ R_new − L_old ⋉ R_old] + ΔL ⋉ R_new`
//!
//! The first bracket is non-empty only for keys whose support crossed
//! zero — the counting trick that makes negation incremental (Gupta–
//! Mumick–Subrahmanian's treatment of set difference).
//!
//! The support map is the node's own state. The left input is not kept
//! here: like [`JoinOp`](crate::join::JoinOp) the node probes the left
//! producer's shared *arrangement* (see [`crate::network`]), which holds
//! `L_old` for the whole pass — exactly the state the rule reads.
//!
//! Like [`JoinOp`](crate::join::JoinOp), the hot path never materialises
//! a key tuple: support is bucketed by key-projection hash and probed
//! with borrowed projections; only the first insertion of a brand-new
//! support key allocates it (`crates/ivm/tests/alloc_counters.rs`
//! counts the allocations).

use pgq_common::fxhash::FxHashMap;
use pgq_common::tuple::Tuple;

use crate::delta::{Delta, IndexedBag, Row, RowSink};
use crate::join::sorted_key_pairs;

/// Support counts per key, bucketed by key-projection hash so probes and
/// updates borrow the probing tuple (via
/// [`KeyRef`](pgq_common::tuple::KeyRef)) instead of projecting it.
#[derive(Clone, Debug, Default)]
struct SupportMap {
    /// key hash -> [(materialised key, support)]
    by_hash: FxHashMap<u64, Vec<(Tuple, i64)>>,
    len: usize,
}

impl SupportMap {
    /// Number of keys with non-zero support.
    fn len(&self) -> usize {
        self.len
    }

    /// Support of `probe.project(cols)` (zero when absent).
    fn probe(&self, probe: &Tuple, cols: &[usize]) -> i64 {
        let kr = probe.key_ref(cols);
        self.by_hash
            .get(&kr.hash())
            .and_then(|bucket| {
                bucket
                    .iter()
                    .find(|(k, _)| kr.matches_key(k))
                    .map(|(_, c)| *c)
            })
            .unwrap_or(0)
    }

    /// Add `dm` to the support of `probe.project(cols)`; returns
    /// `(old, new)` support. Removes the key at zero.
    fn update(&mut self, probe: &Tuple, cols: &[usize], dm: i64) -> (i64, i64) {
        let kr = probe.key_ref(cols);
        let bucket = self.by_hash.entry(kr.hash()).or_default();
        if let Some(pos) = bucket.iter().position(|(k, _)| kr.matches_key(k)) {
            let old = bucket[pos].1;
            let new = old + dm;
            if new == 0 {
                bucket.swap_remove(pos);
                self.len -= 1;
                if bucket.is_empty() {
                    self.by_hash.remove(&kr.hash());
                }
            } else {
                bucket[pos].1 = new;
            }
            (old, new)
        } else {
            // First sighting of this key: the one place a key tuple is
            // materialised.
            bucket.push((kr.to_tuple(), dm));
            self.len += 1;
            (0, dm)
        }
    }
}

/// ⋉ / ▷ node.
#[derive(Clone, Debug)]
pub struct SemiJoinOp {
    /// Key columns of the left arrangement (sorted) and, pairwise, the
    /// right input's key columns — the support map's key order.
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    right_support: SupportMap,
    anti: bool,
}

impl SemiJoinOp {
    /// Create a node joining on the given key columns.
    pub fn new(left_keys: Vec<usize>, right_keys: Vec<usize>, anti: bool) -> SemiJoinOp {
        let (left_keys, right_keys) = sorted_key_pairs(&left_keys, &right_keys);
        SemiJoinOp {
            left_keys,
            right_keys,
            right_support: SupportMap::default(),
            anti,
        }
    }

    /// Key columns the left input must be arranged by.
    pub fn left_arrangement_keys(&self) -> &[usize] {
        &self.left_keys
    }

    /// Support keys materialised (the left input lives in its
    /// producer's arrangement).
    pub(crate) fn memory_tuples(&self) -> usize {
        self.right_support.len()
    }

    fn passes(&self, support_positive: bool) -> bool {
        support_positive != self.anti
    }

    /// Process one batch of borrowed deltas against the left input's
    /// arrangement **as of before the batch**, appending output rows to
    /// `out`. The caller applies `dl` to the arrangement afterwards.
    #[inline(never)]
    pub fn apply(
        &mut self,
        dl: &Delta,
        dr: &Delta,
        left: &IndexedBag,
        out: &mut (impl RowSink + ?Sized),
    ) {
        debug_assert_eq!(left.key_cols(), self.left_keys);
        // Phase 1: apply ΔR; emit flips against L_old. Aggregate ΔR per
        // key first so transient zero crossings inside one batch don't
        // emit cancelling flips; keys stay borrowed — buckets hold entry
        // indices into `dr`, disambiguated by projection equality.
        let dr = dr.entries();
        let mut per_key: FxHashMap<u64, Vec<(usize, i64)>> = FxHashMap::default();
        for (i, (rt, rm)) in dr.iter().enumerate() {
            let kr = rt.key_ref(&self.right_keys);
            let bucket = per_key.entry(kr.hash()).or_default();
            match bucket
                .iter_mut()
                .find(|(j, _)| kr.matches_projection(&dr[*j].0, &self.right_keys))
            {
                Some((_, dm)) => *dm += rm,
                None => bucket.push((i, *rm)),
            }
        }
        for bucket in per_key.into_values() {
            for (rep_ix, dm) in bucket {
                if dm == 0 {
                    continue;
                }
                let rep = &dr[rep_ix].0;
                let (old, new) = self.right_support.update(rep, &self.right_keys, dm);
                let (old_pos, new_pos) = (old > 0, new > 0);
                debug_assert!(new >= 0, "negative existence support under {rep}");
                if old_pos != new_pos {
                    let sign = if self.passes(new_pos) { 1 } else { -1 };
                    for (lt, lm) in left.probe(rep, &self.right_keys) {
                        out.push_row(Row::Held(lt), sign * lm);
                    }
                }
            }
        }

        // Phase 2: ΔL against R_new.
        for (lt, lm) in dl.iter() {
            let positive = self.right_support.probe(lt, &self.left_keys) > 0;
            if self.passes(positive) {
                out.push_row(Row::Held(lt), *lm);
            }
        }
    }

    /// Rebuild the support map from the right input's full bag without
    /// emitting flips — registration onto a populated graph. Post-state
    /// is identical to `apply(∅, dr, …)`: apply's probes exist only to
    /// compute the discarded output.
    pub fn restore(&mut self, dr: &Delta) {
        for (rt, rm) in dr.iter() {
            self.right_support.update(rt, &self.right_keys, *rm);
        }
    }

    /// Reconstruct the full current output bag (L ⋉ R / L ▷ R as of
    /// now) from the left arrangement into `out`.
    pub(crate) fn replay_into(&self, left: &IndexedBag, out: &mut dyn RowSink) {
        for (lt, lm) in left.iter() {
            let positive = self.right_support.probe(lt, &self.left_keys) > 0;
            if self.passes(positive) {
                out.push_row(Row::Held(lt), lm);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::value::Value;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    fn d(entries: &[(&[i64], i64)]) -> Delta {
        entries.iter().map(|(v, m)| (t(v), *m)).collect()
    }

    /// The node with the left arrangement a network would hold for it,
    /// updated after each batch the way the network does.
    struct Arranged {
        op: SemiJoinOp,
        left: IndexedBag,
    }

    impl Arranged {
        fn new(left_keys: Vec<usize>, right_keys: Vec<usize>, anti: bool) -> Arranged {
            let op = SemiJoinOp::new(left_keys, right_keys, anti);
            let left = IndexedBag::new(op.left_arrangement_keys().to_vec());
            Arranged { op, left }
        }

        fn on_deltas(&mut self, dl: Delta, dr: Delta) -> Delta {
            let mut out = Delta::new();
            self.op.apply(&dl, &dr, &self.left, &mut out);
            for (t, m) in dl.iter() {
                self.left.update(t, *m);
            }
            out
        }
    }

    #[test]
    fn semijoin_passes_supported_keys() {
        let mut j = Arranged::new(vec![0], vec![0], false);
        let out = j
            .on_deltas(d(&[(&[1, 10], 1), (&[2, 20], 1)]), d(&[(&[1], 1)]))
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10]), 1)]);
    }

    #[test]
    fn antijoin_passes_unsupported_keys() {
        let mut j = Arranged::new(vec![0], vec![0], true);
        let out = j
            .on_deltas(d(&[(&[1, 10], 1), (&[2, 20], 1)]), d(&[(&[1], 1)]))
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[2, 20]), 1)]);
    }

    #[test]
    fn support_flip_retracts_and_asserts() {
        let mut j = Arranged::new(vec![0], vec![0], true);
        // Left row with no support → passes the antijoin.
        j.on_deltas(d(&[(&[1, 10], 2)]), Delta::new());
        // Support appears → retract both copies.
        let out = j.on_deltas(Delta::new(), d(&[(&[1], 1)])).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10]), -2)]);
        // Second witness: no change (support already positive).
        let out = j.on_deltas(Delta::new(), d(&[(&[1], 1)])).consolidate();
        assert!(out.is_empty());
        // Both witnesses go → row comes back.
        let out = j.on_deltas(Delta::new(), d(&[(&[1], -2)])).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10]), 2)]);
    }

    #[test]
    fn simultaneous_deltas_use_new_right_state() {
        let mut j = Arranged::new(vec![0], vec![0], false);
        // Left row and its witness arrive in the same batch.
        let out = j
            .on_deltas(d(&[(&[1, 10], 1)]), d(&[(&[1], 1)]))
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10]), 1)]);
    }

    #[test]
    fn left_retraction_propagates() {
        let mut j = Arranged::new(vec![0], vec![0], false);
        j.on_deltas(d(&[(&[1, 10], 1)]), d(&[(&[1], 1)]));
        let out = j
            .on_deltas(d(&[(&[1, 10], -1)]), Delta::new())
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10]), -1)]);
    }

    #[test]
    fn cancelled_batch_does_not_flip() {
        // +1 and -1 for the same key in one ΔR batch: net zero, no flip.
        let mut j = Arranged::new(vec![0], vec![0], true);
        j.on_deltas(d(&[(&[1, 10], 1)]), Delta::new());
        let out = j
            .on_deltas(Delta::new(), d(&[(&[1], 1), (&[1], -1)]))
            .consolidate();
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(j.op.memory_tuples(), 0, "support key should not linger");
    }

    #[test]
    fn empty_keys_model_global_existence() {
        // No key columns: the right side acts as a global gate.
        let mut j = Arranged::new(vec![], vec![], true);
        let out = j.on_deltas(d(&[(&[5], 1)]), Delta::new()).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[5]), 1)]);
        let out = j.on_deltas(Delta::new(), d(&[(&[], 1)])).consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[5]), -1)]);
    }
}
