//! Incremental hash join with indexed memories on both sides.
//!
//! Standard bilinear delta rule over bags:
//! `Δ(L ⋈ R) = ΔL ⋈ R  ∪  (L + ΔL) ⋈ ΔR`.
//!
//! The hot path is allocation-free per match: memories are probed via
//! [`IndexedBag::probe`] (no key tuple is built), matches are consumed by
//! borrow (no clone into a temporary `Vec`), and output values are
//! assembled in a reused scratch buffer so each emitted tuple costs
//! exactly its own `Arc` allocation.

use pgq_common::tuple::Tuple;
use pgq_common::value::Value;

use crate::delta::{Delta, IndexedBag};
use crate::stats::counters;

/// A counting hash-join node. Output schema: left ++ (right minus its key
/// columns) — matching [`pgq_algebra::fra::Fra::HashJoin`].
#[derive(Clone, Debug)]
pub struct JoinOp {
    left_mem: IndexedBag,
    right_mem: IndexedBag,
    right_keep: Vec<usize>,
    /// Optional output permutation over the virtual row
    /// `left ++ right[right_keep]`, folded into emission so consumers
    /// that reorder columns (the ⋈* destination join) don't pay a second
    /// tuple materialisation per row.
    out_perm: Option<Vec<usize>>,
    /// Reused output-row assembly buffer.
    scratch: Vec<Value>,
}

/// Emit the (optionally permuted) output row `left ++ right[right_keep]`
/// with multiplicity `mult`, assembling the values in `scratch`.
fn emit(
    scratch: &mut Vec<Value>,
    l: &Tuple,
    r: &Tuple,
    right_keep: &[usize],
    out_perm: &Option<Vec<usize>>,
    mult: i64,
    out: &mut Delta,
) {
    scratch.clear();
    scratch.reserve(l.arity() + right_keep.len());
    match out_perm {
        None => {
            scratch.extend_from_slice(l.values());
            for &i in right_keep {
                scratch.push(r.get(i).clone());
            }
        }
        Some(perm) => {
            let la = l.arity();
            for &i in perm {
                if i < la {
                    scratch.push(l.get(i).clone());
                } else {
                    scratch.push(r.get(right_keep[i - la]).clone());
                }
            }
        }
    }
    counters::join_tuple_emitted();
    out.push(Tuple::from_slice(scratch), mult);
}

impl JoinOp {
    /// Create a join; `right_arity` is needed to compute the non-key
    /// columns of the right side that survive into the output.
    pub fn new(left_keys: Vec<usize>, right_keys: Vec<usize>, right_arity: usize) -> JoinOp {
        let right_keep = (0..right_arity)
            .filter(|i| !right_keys.contains(i))
            .collect();
        JoinOp {
            left_mem: IndexedBag::new(left_keys),
            right_mem: IndexedBag::new(right_keys),
            right_keep,
            out_perm: None,
            scratch: Vec::new(),
        }
    }

    /// Reorder emitted rows by `perm` (indexes into the unpermuted output
    /// `left ++ right[right_keep]`). Must cover every output column.
    pub fn with_output_perm(mut self, perm: Vec<usize>) -> JoinOp {
        self.out_perm = Some(perm);
        self
    }

    /// Tuples materialised in the two memories.
    pub fn memory_tuples(&self) -> usize {
        self.left_mem.distinct_len() + self.right_mem.distinct_len()
    }

    /// The left input's full current bag, as maintained for probing.
    pub fn left_memory(&self) -> &IndexedBag {
        &self.left_mem
    }

    /// The right input's full current bag.
    pub fn right_memory(&self) -> &IndexedBag {
        &self.right_mem
    }

    /// Process one batch of deltas from both inputs.
    pub fn on_deltas(&mut self, dl: Delta, dr: Delta) -> Delta {
        let mut out = Delta::new();
        self.apply(&dl, &dr, &mut out);
        out
    }

    /// Process one batch of borrowed deltas, appending output rows to
    /// `out`. Inputs are borrowed so a shared upstream node's delta can
    /// feed several joins without cloning.
    pub fn apply(&mut self, dl: &Delta, dr: &Delta, out: &mut Delta) {
        let JoinOp {
            left_mem,
            right_mem,
            right_keep,
            out_perm,
            scratch,
        } = self;
        // ΔL ⋈ R_old (right memory not yet updated).
        for (lt, lm) in dl.iter() {
            for (rt, rm) in right_mem.probe(lt, left_mem.key_cols()) {
                emit(scratch, lt, rt, right_keep, out_perm, lm * rm, out);
            }
        }
        // Update left memory → L_new.
        for (lt, lm) in dl.iter() {
            left_mem.update(lt, *lm);
        }
        // L_new ⋈ ΔR
        for (rt, rm) in dr.iter() {
            for (lt, lm) in left_mem.probe(rt, right_mem.key_cols()) {
                emit(scratch, lt, rt, right_keep, out_perm, lm * rm, out);
            }
        }
        for (rt, rm) in dr.iter() {
            right_mem.update(rt, *rm);
        }
    }

    /// Rebuild both memories from full input bags **without probing**
    /// — the warm-recovery path. Post-state is identical to
    /// `apply(dl, dr, &mut discard)` (apply's emissions are pure
    /// output; the memories only ever absorb the inputs), but the
    /// O(|L ⋈ R|) match enumeration a cold initialisation performs and
    /// throws away is skipped entirely.
    pub fn restore(&mut self, dl: &Delta, dr: &Delta) {
        for (lt, lm) in dl.iter() {
            self.left_mem.update(lt, *lm);
        }
        for (rt, rm) in dr.iter() {
            self.right_mem.update(rt, *rm);
        }
    }

    /// Reconstruct the full current output bag from the two memories
    /// (L ⋈ R as of now), appending to `out`. Used when a newly
    /// registered view attaches to an already-populated shared node and
    /// needs its complete state rather than a delta.
    pub fn replay_into(&mut self, out: &mut Delta) {
        let JoinOp {
            left_mem,
            right_mem,
            right_keep,
            out_perm,
            scratch,
        } = self;
        for (lt, lm) in left_mem.iter() {
            for (rt, rm) in right_mem.probe(lt, left_mem.key_cols()) {
                emit(scratch, lt, rt, right_keep, out_perm, lm * rm, out);
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

    #[test]
    fn basic_join() {
        // L(a, x) ⋈[a] R(a, y) → (a, x, y)
        let mut j = JoinOp::new(vec![0], vec![0], 2);
        let out = j
            .on_deltas(d(&[(&[1, 10], 1)]), d(&[(&[1, 100], 1)]))
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10, 100]), 1)]);
    }

    #[test]
    fn delta_join_both_sides_same_batch_counts_once() {
        let mut j = JoinOp::new(vec![0], vec![0], 2);
        // Pre-populate.
        j.on_deltas(d(&[(&[1, 10], 1)]), d(&[(&[1, 100], 1)]));
        // Add one tuple on each side in the same batch.
        let out = j
            .on_deltas(d(&[(&[1, 20], 1)]), d(&[(&[1, 200], 1)]))
            .consolidate();
        // New pairs: (20,100), (10,200), (20,200) — exactly three.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn retraction_propagates() {
        let mut j = JoinOp::new(vec![0], vec![0], 2);
        j.on_deltas(d(&[(&[1, 10], 1)]), d(&[(&[1, 100], 1)]));
        let out = j
            .on_deltas(d(&[(&[1, 10], -1)]), Delta::new())
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10, 100]), -1)]);
    }

    #[test]
    fn multiplicities_multiply() {
        let mut j = JoinOp::new(vec![0], vec![0], 2);
        let out = j
            .on_deltas(d(&[(&[1, 10], 2)]), d(&[(&[1, 100], 3)]))
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10, 100]), 6)]);
    }

    #[test]
    fn cross_product_when_no_keys() {
        let mut j = JoinOp::new(vec![], vec![], 1);
        let out = j
            .on_deltas(d(&[(&[1], 1), (&[2], 1)]), d(&[(&[7], 1)]))
            .consolidate();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn multi_column_keys() {
        let mut j = JoinOp::new(vec![0, 1], vec![1, 0], 3);
        // L(a,b,...) joins R(y,b,a) on (a=R.2? no: left (0,1)=(a,b), right (1,0)=(R1,R0)).
        let out = j
            .on_deltas(d(&[(&[1, 2, 5], 1)]), d(&[(&[2, 1, 9], 1)]))
            .consolidate();
        // Right keep = col 2 → output (1,2,5,9).
        assert_eq!(out.into_entries(), vec![(t(&[1, 2, 5, 9]), 1)]);
    }
}
