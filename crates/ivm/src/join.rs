//! Incremental hash join: a kernel over two borrowed *arrangements*.
//!
//! The join keeps no copy of its inputs. Each input's full bag is indexed
//! once by the [network](crate::network), as an arrangement owned by the
//! producing node and shared by every consumer that joins on the same
//! key-column set; the kernel only probes them. Arrangements hold the
//! state as of the *start* of the pass — the network applies each
//! producer's delta after the pass — so the delta rule has three terms:
//!
//! `Δ(L ⋈ R) = ΔL ⋈ R_old  +  L_old ⋈ ΔR  +  ΔL ⋈ ΔR`.
//!
//! The third term is what a self-join (`W ⋈ W` fed the same delta on both
//! sides) needs to see a new tuple meet itself; the classic two-memory
//! rule gets it by updating the left memory between the two probes, which
//! a read-only shared index cannot do. It is computed by nested loop when
//! `|ΔL|·|ΔR|` is small (the per-transaction case) and through a reused
//! sorted run of key hashes over the smaller delta otherwise.
//!
//! An arrangement is keyed by the *sorted* key columns, so `(c, a)` and
//! `(a, c)` are one index; the kernel permutes its probe columns to
//! match. A value join's value keys follow its id keys, sorted the same
//! way, and compare under `join_key` ([`IndexedBag`]); both of their
//! columns stay in the output.
//!
//! The hot path is allocation-free per match: arrangements are probed via
//! [`IndexedBag::probe`] (no key tuple is built), matches are consumed by
//! borrow, and output values are assembled in a reused scratch buffer so
//! each emitted tuple costs exactly its own `Arc` allocation.

use pgq_common::tuple::Tuple;
use pgq_common::value::Value;

use crate::delta::{key_hash, keys_match, Delta, IndexedBag, Row, RowSink};
use crate::stats::Counters;

/// `ΔL ⋈ ΔR` runs as a nested loop up to this many candidate pairs.
const NESTED_DELTA_PAIRS: usize = 64;

/// Sort the key pairs `(keys[i], partner[i])` by `keys` (ties by
/// `partner`): the arrangement of the `keys` side is indexed by the
/// first list, and a tuple of the other side probes it with the second.
pub(crate) fn sorted_key_pairs(keys: &[usize], partner: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut pairs: Vec<(usize, usize)> =
        keys.iter().copied().zip(partner.iter().copied()).collect();
    pairs.sort_unstable();
    pairs.into_iter().unzip()
}

/// A counting hash-join kernel. Output schema: left ++ (right minus its
/// key columns) — matching [`pgq_algebra::fra::Fra::HashJoin`].
#[derive(Clone, Debug)]
pub struct JoinOp {
    /// Key columns of the left arrangement (sorted), and the columns of
    /// a right tuple that probe it, pairwise.
    left_arr_keys: Vec<usize>,
    right_probe: Vec<usize>,
    /// Key columns of the right arrangement (sorted), and the columns of
    /// a left tuple that probe it, pairwise.
    right_arr_keys: Vec<usize>,
    left_probe: Vec<usize>,
    /// How many of each key list above, at its end, are value keys.
    values: usize,
    right_keep: Vec<usize>,
    /// Reused output-row assembly buffer.
    scratch: Vec<Value>,
    /// Reused `(key hash, entry index)` run over the smaller delta of a
    /// large `ΔL ⋈ ΔR`.
    delta_index: Vec<(u64, u32)>,
    /// Work [`JoinOp::apply`] has done: the rows it has emitted, counted
    /// as they go out (its sink may be a program that keeps none).
    counters: Counters,
}

/// Emit the output row `left ++ right[right_keep]` with multiplicity
/// `mult`, assembling the values in `scratch`.
fn emit(
    scratch: &mut Vec<Value>,
    l: &Tuple,
    r: &Tuple,
    right_keep: &[usize],
    mult: i64,
    out: &mut (impl RowSink + ?Sized),
) {
    scratch.clear();
    scratch.reserve(l.arity() + right_keep.len());
    scratch.extend_from_slice(l.values());
    for &i in right_keep {
        scratch.push(r.get(i).clone());
    }
    out.push_row(Row::Assembled(scratch), mult);
}

impl JoinOp {
    /// Create a join; `right_arity` is needed to compute the non-key
    /// columns of the right side that survive into the output.
    pub fn new(left_keys: Vec<usize>, right_keys: Vec<usize>, right_arity: usize) -> JoinOp {
        JoinOp::with_value_keys(left_keys, right_keys, &[], right_arity)
    }

    /// [`JoinOp::new`] that also equates the `(left, right)` column
    /// pairs of `value_keys` by value, keeping both columns.
    pub(crate) fn with_value_keys(
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        value_keys: &[(usize, usize)],
        right_arity: usize,
    ) -> JoinOp {
        let right_keep = (0..right_arity)
            .filter(|i| !right_keys.contains(i))
            .collect();
        let (left_vals, right_vals): (Vec<usize>, Vec<usize>) = value_keys.iter().copied().unzip();
        // Id keys first, value keys after them, each run sorted.
        let arranged =
            |keys: &[usize], partner: &[usize], vals: &[usize], partner_vals: &[usize]| {
                let (mut arr, mut probe) = sorted_key_pairs(keys, partner);
                let (varr, vprobe) = sorted_key_pairs(vals, partner_vals);
                arr.extend(varr);
                probe.extend(vprobe);
                (arr, probe)
            };
        let (left_arr_keys, right_probe) =
            arranged(&left_keys, &right_keys, &left_vals, &right_vals);
        let (right_arr_keys, left_probe) =
            arranged(&right_keys, &left_keys, &right_vals, &left_vals);
        JoinOp {
            left_arr_keys,
            right_probe,
            right_arr_keys,
            left_probe,
            values: value_keys.len(),
            right_keep,
            scratch: Vec::new(),
            delta_index: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Key columns the left input must be arranged by.
    pub fn left_arrangement_keys(&self) -> &[usize] {
        &self.left_arr_keys
    }

    /// Key columns the right input must be arranged by.
    pub fn right_arrangement_keys(&self) -> &[usize] {
        &self.right_arr_keys
    }

    /// How many arrangement key columns, at the end of each list, are
    /// value keys ([`IndexedBag::with_values`]).
    pub(crate) fn value_key_count(&self) -> usize {
        self.values
    }

    /// This operator's work: the rows it has emitted.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Process one batch of borrowed deltas against the two inputs'
    /// arrangements **as of before the batch**, appending output rows to
    /// `out`. The caller applies `dl` / `dr` to the arrangements
    /// afterwards.
    pub fn apply(
        &mut self,
        dl: &Delta,
        dr: &Delta,
        left: &IndexedBag,
        right: &IndexedBag,
        out: &mut (impl RowSink + ?Sized),
    ) {
        debug_assert_eq!(left.key_cols(), self.left_arr_keys);
        debug_assert_eq!(right.key_cols(), self.right_arr_keys);
        debug_assert_eq!(left.value_cols(), self.values);
        debug_assert_eq!(right.value_cols(), self.values);
        let mut emitted = 0;
        let JoinOp {
            right_probe,
            left_probe,
            right_keep,
            scratch,
            ..
        } = self;
        // ΔL ⋈ R_old
        for (lt, lm) in dl.iter() {
            for (rt, rm) in right.probe(lt, left_probe) {
                emit(scratch, lt, rt, right_keep, lm * rm, out);
                emitted += 1;
            }
        }
        // L_old ⋈ ΔR
        for (rt, rm) in dr.iter() {
            for (lt, lm) in left.probe(rt, right_probe) {
                emit(scratch, lt, rt, right_keep, lm * rm, out);
                emitted += 1;
            }
        }
        if !dl.is_empty() && !dr.is_empty() {
            emitted += self.join_deltas(dl.entries(), dr.entries(), out);
        }
        self.counters.join_tuples_emitted += emitted;
    }

    /// `ΔL ⋈ ΔR`; returns the rows emitted.
    fn join_deltas(
        &mut self,
        dl: &[(Tuple, i64)],
        dr: &[(Tuple, i64)],
        out: &mut (impl RowSink + ?Sized),
    ) -> u64 {
        let JoinOp {
            right_arr_keys,
            left_probe,
            values,
            right_keep,
            scratch,
            delta_index,
            ..
        } = self;
        let values = *values;
        let mut emitted = 0;
        if dl.len() * dr.len() <= NESTED_DELTA_PAIRS {
            for (lt, lm) in dl {
                for (rt, rm) in dr {
                    if keys_match(lt, left_probe, rt, right_arr_keys, values) {
                        emit(scratch, lt, rt, right_keep, lm * rm, out);
                        emitted += 1;
                    }
                }
            }
            return emitted;
        }
        let index_left = dl.len() <= dr.len();
        let (small, small_cols, big, big_cols) = if index_left {
            (dl, &*left_probe, dr, &*right_arr_keys)
        } else {
            (dr, &*right_arr_keys, dl, &*left_probe)
        };
        delta_index.clear();
        delta_index.extend(
            small
                .iter()
                .enumerate()
                .map(|(i, (t, _))| (key_hash(t, small_cols, values), i as u32)),
        );
        delta_index.sort_unstable();
        for (bt, bm) in big {
            let hash = key_hash(bt, big_cols, values);
            let start = delta_index.partition_point(|&(h, _)| h < hash);
            for &(_, i) in delta_index[start..].iter().take_while(|&&(h, _)| h == hash) {
                let (st, sm) = &small[i as usize];
                if keys_match(bt, big_cols, st, small_cols, values) {
                    let (lt, rt) = if index_left { (st, bt) } else { (bt, st) };
                    emit(scratch, lt, rt, right_keep, sm * bm, out);
                    emitted += 1;
                }
            }
        }
        emitted
    }

    /// Enumerate the full current output bag (L ⋈ R as of now) from the
    /// two arrangements into `out`, returning the work as
    /// [`join_tuples_emitted`](Counters::join_tuples_emitted). Used when a
    /// consumer registered later needs this node's complete state rather
    /// than a delta; each row is handed over assembled, so only a consumer
    /// that keeps it allocates.
    pub(crate) fn replay_into(
        &self,
        left: &IndexedBag,
        right: &IndexedBag,
        out: &mut dyn RowSink,
    ) -> Counters {
        let mut scratch = Vec::new();
        let mut emitted = 0;
        for (lt, lm) in left.iter() {
            for (rt, rm) in right.probe(lt, &self.left_probe) {
                emit(&mut scratch, lt, rt, &self.right_keep, lm * rm, out);
                emitted += 1;
            }
        }
        Counters {
            join_tuples_emitted: emitted,
            ..Counters::default()
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

    /// The kernel with the two arrangements a network would hold for it,
    /// updated after each batch the way the network does.
    struct Arranged {
        op: JoinOp,
        left: IndexedBag,
        right: IndexedBag,
    }

    impl Arranged {
        fn new(op: JoinOp) -> Arranged {
            let left = IndexedBag::new(op.left_arrangement_keys().to_vec());
            let right = IndexedBag::new(op.right_arrangement_keys().to_vec());
            Arranged { op, left, right }
        }

        fn on_deltas(&mut self, dl: Delta, dr: Delta) -> Delta {
            let mut out = Delta::new();
            self.op.apply(&dl, &dr, &self.left, &self.right, &mut out);
            for (t, m) in dl.iter() {
                self.left.update(t, *m);
            }
            for (t, m) in dr.iter() {
                self.right.update(t, *m);
            }
            out
        }
    }

    /// The two-memory join this kernel replaced — `ΔL ⋈ R_old`, then the
    /// left memory absorbs `ΔL`, then `L_new ⋈ ΔR` — kept as the model
    /// the three-term rule is checked against.
    struct TwoMemoryJoin {
        left_mem: IndexedBag,
        right_mem: IndexedBag,
        right_keep: Vec<usize>,
    }

    impl TwoMemoryJoin {
        fn new(left_keys: Vec<usize>, right_keys: Vec<usize>, right_arity: usize) -> Self {
            TwoMemoryJoin {
                right_keep: (0..right_arity)
                    .filter(|i| !right_keys.contains(i))
                    .collect(),
                left_mem: IndexedBag::new(left_keys),
                right_mem: IndexedBag::new(right_keys),
            }
        }

        fn on_deltas(&mut self, dl: &Delta, dr: &Delta) -> Delta {
            let mut out = Delta::new();
            let mut scratch = Vec::new();
            for (lt, lm) in dl.iter() {
                for (rt, rm) in self.right_mem.probe(lt, self.left_mem.key_cols()) {
                    emit(&mut scratch, lt, rt, &self.right_keep, lm * rm, &mut out);
                }
            }
            for (lt, lm) in dl.iter() {
                self.left_mem.update(lt, *lm);
            }
            for (rt, rm) in dr.iter() {
                for (lt, lm) in self.left_mem.probe(rt, self.right_mem.key_cols()) {
                    emit(&mut scratch, lt, rt, &self.right_keep, lm * rm, &mut out);
                }
            }
            for (rt, rm) in dr.iter() {
                self.right_mem.update(rt, *rm);
            }
            out
        }
    }

    #[test]
    fn basic_join() {
        // L(a, x) ⋈[a] R(a, y) → (a, x, y)
        let mut j = Arranged::new(JoinOp::new(vec![0], vec![0], 2));
        let out = j
            .on_deltas(d(&[(&[1, 10], 1)]), d(&[(&[1, 100], 1)]))
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10, 100]), 1)]);
    }

    #[test]
    fn delta_join_both_sides_same_batch_counts_once() {
        let mut j = Arranged::new(JoinOp::new(vec![0], vec![0], 2));
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
        let mut j = Arranged::new(JoinOp::new(vec![0], vec![0], 2));
        j.on_deltas(d(&[(&[1, 10], 1)]), d(&[(&[1, 100], 1)]));
        let out = j
            .on_deltas(d(&[(&[1, 10], -1)]), Delta::new())
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10, 100]), -1)]);
    }

    #[test]
    fn multiplicities_multiply() {
        let mut j = Arranged::new(JoinOp::new(vec![0], vec![0], 2));
        let out = j
            .on_deltas(d(&[(&[1, 10], 2)]), d(&[(&[1, 100], 3)]))
            .consolidate();
        assert_eq!(out.into_entries(), vec![(t(&[1, 10, 100]), 6)]);
    }

    #[test]
    fn cross_product_when_no_keys() {
        let mut j = Arranged::new(JoinOp::new(vec![], vec![], 1));
        let out = j
            .on_deltas(d(&[(&[1], 1), (&[2], 1)]), d(&[(&[7], 1)]))
            .consolidate();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn multi_column_keys_probe_in_arrangement_order() {
        // L(a,b,x) ⋈ R(y,b,a) on a = R.2, b = R.1, given as the key lists
        // (0,1) / (2,1) and, equivalently, (1,0) / (1,2): both arrange
        // the right side by the sorted columns {1,2}.
        for (lk, rk) in [(vec![0, 1], vec![2, 1]), (vec![1, 0], vec![1, 2])] {
            let op = JoinOp::new(lk, rk, 3);
            assert_eq!(op.left_arrangement_keys(), [0, 1]);
            assert_eq!(op.right_arrangement_keys(), [1, 2]);
            let mut j = Arranged::new(op);
            let out = j
                .on_deltas(
                    d(&[(&[1, 2, 5], 1)]),
                    d(&[(&[9, 2, 1], 1), (&[8, 1, 2], 1)]),
                )
                .consolidate();
            // Right keep = col 0 → output (1,2,5,9); (8,1,2) has the
            // key values transposed and must not match.
            assert_eq!(out.into_entries(), vec![(t(&[1, 2, 5, 9]), 1)]);
        }
    }

    /// Deterministic pseudo-random stream.
    fn next(state: &mut u64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 33) as i64
    }

    /// Self-join fed the same delta on both sides — the case the third
    /// term exists for — against the two-memory model, at widths 1 and 4,
    /// over batches that include multiplicity 2, a retract-and-assert of
    /// one tuple inside one batch, an empty batch, and batches large
    /// enough to leave the nested loop.
    #[test]
    fn three_term_rule_matches_two_memory_join_on_self_joins() {
        for width in [1usize, 4] {
            // W(k, …) ⋈ W on col 0 = col width-1 (width 1: col 0 both).
            let (lk, rk) = (vec![0], vec![width - 1]);
            let mut model = TwoMemoryJoin::new(lk.clone(), rk.clone(), width);
            let mut j = Arranged::new(JoinOp::new(lk, rk, width));
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ width as u64;
            let mut live: Vec<Tuple> = Vec::new();
            for step in 0..60 {
                let mut delta = Delta::new();
                match step % 6 {
                    // An empty side.
                    0 => {}
                    // Multiplicity 2.
                    1 => {
                        let tu: Tuple =
                            (0..width).map(|_| Value::Int(next(&mut rng) % 3)).collect();
                        live.push(tu.clone());
                        live.push(tu.clone());
                        delta.push(tu, 2);
                    }
                    // Retract and re-assert one live tuple in one
                    // batch.
                    2 if !live.is_empty() => {
                        let tu = live[next(&mut rng) as usize % live.len()].clone();
                        delta.push(tu.clone(), -1);
                        delta.push(tu, 1);
                    }
                    // A large batch: beyond the nested-loop bound.
                    3 => {
                        for _ in 0..12 {
                            let tu: Tuple =
                                (0..width).map(|_| Value::Int(next(&mut rng) % 4)).collect();
                            live.push(tu.clone());
                            delta.push(tu, 1);
                        }
                    }
                    // Retractions.
                    4 => {
                        for _ in 0..live.len().min(3) {
                            let ix = next(&mut rng) as usize % live.len();
                            delta.push(live.swap_remove(ix), -1);
                        }
                    }
                    _ => {
                        let tu: Tuple =
                            (0..width).map(|_| Value::Int(next(&mut rng) % 3)).collect();
                        live.push(tu.clone());
                        delta.push(tu, 1);
                    }
                }
                let want = model.on_deltas(&delta, &delta).consolidate_sorted();
                let got = j.on_deltas(delta.clone(), delta).consolidate_sorted();
                assert_eq!(got, want, "width {width}, step {step}");
            }
            // And the enumeration of the arrangements is L ⋈ R.
            let mut replayed = Delta::new();
            let Arranged { op, left, right } = &mut j;
            let work = op.replay_into(left, right, &mut replayed);
            assert_eq!(work.join_tuples_emitted, replayed.len() as u64);
            let mut full = Delta::new();
            let mut scratch = Vec::new();
            for (lt, lm) in model.left_mem.iter() {
                for (rt, rm) in model.right_mem.probe(lt, model.left_mem.key_cols()) {
                    emit(&mut scratch, lt, rt, &model.right_keep, lm * rm, &mut full);
                }
            }
            assert_eq!(replayed.consolidate_sorted(), full.consolidate_sorted());
        }
    }
}
