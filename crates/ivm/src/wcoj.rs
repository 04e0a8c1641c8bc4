//! ⨝ⁿ — worst-case optimal n-ary join (generic join / leapfrog
//! triejoin) in counting delta form.
//!
//! Binary join trees are worst-case *suboptimal* on cyclic patterns:
//! maintaining a triangle query as `(R ⋈ S) ⋈ T` materialises the
//! Θ(|E|²) open wedges of `R ⋈ S` even when only O(|E|^{3/2})
//! triangles exist (the AGM bound). This operator joins all n inputs at
//! once, binding one *variable* at a time in a fixed global order and
//! intersecting, per variable, the candidate sets every input offers —
//! so no intermediate ever exceeds the final result's fractional edge
//! cover bound (Ngo–Porat–Ré–Rudra; Veldhuizen's leapfrog triejoin).
//!
//! # Delta form
//!
//! The maintenance rule is the n-ary extension of the bilinear binary
//! rule, evaluated as n sequential passes:
//!
//! ```text
//! Δ(R₁ ⋈ … ⋈ Rₙ) = Σᵢ  R₁ⁿᵉʷ ⋈ … ⋈ Rᵢ₋₁ⁿᵉʷ ⋈ ΔRᵢ ⋈ Rᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Rₙᵒˡᵈ
//! ```
//!
//! Pass `i` seeds the join with each ΔRᵢ tuple (binding all of input
//! `i`'s variables at once), enumerates the remaining variables in
//! ascending global order by intersecting the other inputs' candidate
//! sets, and only then folds ΔRᵢ into input `i`'s memory — so memories
//! `j < i` are post-transaction and memories `j > i` pre-transaction,
//! exactly as the rule requires. Each inserted or deleted edge therefore
//! pays for the *new or vanished motif instances it participates in*,
//! never for wedge intermediates.
//!
//! # Memories
//!
//! Each input position keeps its own memory, even when several positions
//! share one upstream node (a triangle over a single edge type
//! hash-conses all three scans into one node; the sequential rule needs
//! per-position old/new staging regardless). A memory is a `full` map
//! (complete variable binding → multiplicity) plus a family of
//! `SubIndex`es — one per (bound-variable-set, next-variable) pair any
//! delta rule or replay can probe it with. The index family is computed
//! statically from the variable order at construction; maintenance
//! updates every index in lockstep.
//!
//! # Candidate backends: sorted runs vs hash tries
//!
//! A sub-index entry holds the candidate values of one variable under a
//! bound prefix, in one of two interchangeable backends:
//!
//! * **Sorted runs** (default) — a `SortedSet`: a large sorted `base`
//!   run (zero-multiplicity tombstones compacted lazily) plus a small
//!   sorted `tail` run that absorbs recent deltas and is merged into
//!   the base when it outgrows its cap, so per-delta maintenance stays
//!   amortised-logarithmic. The per-variable intersection walks all
//!   consulted sets **leapfrog-style** with exponential-search
//!   galloping (`SetCursor::seek_geq`): intersecting a 10-degree
//!   candidate list against a 10k-degree hub costs O(10·log 10k)
//!   comparisons instead of the O(10k)-sized hash iteration.
//! * **Hash tries** — plain `Value → multiplicity` hash maps; the
//!   intersection iterates the smallest map and probes the rest. O(1)
//!   per probe but cannot skip, so a hub pays its full degree; on
//!   low-skew adjacency the candidate lists are short and it wins by
//!   the leapfrog cursor's constant. The registration-time catalog
//!   picks per view (`RegisterOptions::wcoj_sorted` pins one for the
//!   oracles' twins).
//!
//! Both backends prune at zero net multiplicity, so presence ⇔ support
//! and the enumeration logic is backend-agnostic. The operator's
//! [`counters`](MultiwayJoinOp::counters) — `gallop_steps` /
//! `intersect_probes` — expose the intersection work for the
//! counter-pinning tests.
//!
//! Variable ids double as the elimination order **and** the output
//! column positions (see [`pgq_algebra::fra::Fra::MultiwayJoin`]), so
//! the emitted tuple is simply the binding vector.

use std::cmp::Ordering;

use pgq_common::fxhash::FxHashMap;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;

use crate::delta::{Delta, Row, RowSink};
use crate::stats::Counters;

/// Merge the sorted `tail` run into `base` once it exceeds
/// `TAIL_CAP_MIN + base/8` entries (amortises the O(base) merge over
/// Ω(base/8) inserts).
const TAIL_CAP_MIN: usize = 8;

/// Compact `base` tombstones once they outnumber live base entries
/// (and there are at least this many).
const COMPACT_MIN: usize = 8;

/// Candidate values of one variable under one bound prefix, as two
/// sorted runs: `base` (may carry zero-multiplicity tombstones) and a
/// small `tail` of recent updates. A value lives in **exactly one**
/// run (a tombstone counts as living in `base`), so updates are a
/// binary search and intersections never see duplicates.
#[derive(Clone, Debug, Default)]
struct SortedSet {
    /// Main run, ascending by [`Value::total_cmp`]; entries with
    /// multiplicity 0 are tombstones awaiting compaction.
    base: Vec<(Value, i64)>,
    /// Recent updates, ascending, tombstone-free, disjoint from `base`.
    tail: Vec<(Value, i64)>,
    /// Tombstones currently in `base`.
    zeros: usize,
}

impl SortedSet {
    fn with_entry(v: Value, m: i64) -> SortedSet {
        SortedSet {
            base: vec![(v, m)],
            tail: Vec::new(),
            zeros: 0,
        }
    }

    /// Live (non-tombstone) candidates.
    fn len(&self) -> usize {
        self.base.len() - self.zeros + self.tail.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold one signed multiplicity update, keeping both runs sorted.
    fn add(&mut self, v: &Value, m: i64) {
        if let Ok(i) = self.base.binary_search_by(|(x, _)| x.total_cmp(v)) {
            let before = self.base[i].1;
            let after = before + m;
            self.base[i].1 = after;
            match (before == 0, after == 0) {
                (false, true) => {
                    self.zeros += 1;
                    if self.zeros >= COMPACT_MIN && self.zeros * 2 > self.base.len() {
                        self.base.retain(|&(_, c)| c != 0);
                        self.zeros = 0;
                    }
                }
                (true, false) => self.zeros -= 1,
                _ => {}
            }
            return;
        }
        match self.tail.binary_search_by(|(x, _)| x.total_cmp(v)) {
            Ok(i) => {
                self.tail[i].1 += m;
                if self.tail[i].1 == 0 {
                    self.tail.remove(i);
                }
            }
            Err(i) => {
                self.tail.insert(i, (v.clone(), m));
                if self.tail.len() > TAIL_CAP_MIN + self.base.len() / 8 {
                    self.merge_tail();
                }
            }
        }
    }

    /// Merge `tail` into `base`, dropping tombstones along the way.
    fn merge_tail(&mut self) {
        let mut merged = Vec::with_capacity(self.len());
        let mut bi = 0;
        let mut ti = 0;
        while bi < self.base.len() && ti < self.tail.len() {
            // Runs are disjoint, so the comparison is never Equal.
            if self.base[bi].0.total_cmp(&self.tail[ti].0) == Ordering::Less {
                if self.base[bi].1 != 0 {
                    merged.push(std::mem::replace(&mut self.base[bi], (Value::Null, 0)));
                }
                bi += 1;
            } else {
                merged.push(std::mem::replace(&mut self.tail[ti], (Value::Null, 0)));
                ti += 1;
            }
        }
        for e in &mut self.base[bi..] {
            if e.1 != 0 {
                merged.push(std::mem::replace(e, (Value::Null, 0)));
            }
        }
        for e in &mut self.tail[ti..] {
            merged.push(std::mem::replace(e, (Value::Null, 0)));
        }
        self.base = merged;
        self.tail.clear();
        self.zeros = 0;
    }
}

/// First index in the sorted run `xs[from..]` whose value is ≥ `bound`,
/// by exponential search from `from` (gallop doublings + binary search
/// within the last doubled window). Returns the index and the number of
/// comparison steps taken.
fn gallop_geq(xs: &[(Value, i64)], from: usize, bound: &Value) -> (usize, u64) {
    let n = xs.len();
    if from >= n || xs[from].0.total_cmp(bound) != Ordering::Less {
        return (from, 1);
    }
    let mut steps = 1u64;
    // Invariant: xs[lo] < bound.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < n && xs[lo + step].0.total_cmp(bound) == Ordering::Less {
        lo += step;
        step *= 2;
        steps += 1;
    }
    let mut hi = (lo + step).min(n);
    // Binary search (lo, hi]: first index ≥ bound.
    let mut l = lo + 1;
    while l < hi {
        let mid = l + (hi - l) / 2;
        steps += 1;
        if xs[mid].0.total_cmp(bound) == Ordering::Less {
            l = mid + 1;
        } else {
            hi = mid;
        }
    }
    (l, steps)
}

/// Leapfrog cursor over one [`SortedSet`]'s two runs, presenting the
/// merged ascending sequence of live candidates. `bi` always rests on a
/// live base entry (tombstones are hopped in `settle`).
struct SetCursor<'a> {
    base: &'a [(Value, i64)],
    tail: &'a [(Value, i64)],
    bi: usize,
    ti: usize,
}

impl<'a> SetCursor<'a> {
    fn new(set: &'a SortedSet) -> SetCursor<'a> {
        let mut c = SetCursor {
            base: &set.base,
            tail: &set.tail,
            bi: 0,
            ti: 0,
        };
        c.settle();
        c
    }

    /// Hop `bi` past tombstones.
    fn settle(&mut self) {
        while self.bi < self.base.len() && self.base[self.bi].1 == 0 {
            self.bi += 1;
        }
    }

    /// The smaller of the two run heads, i.e. the current candidate.
    fn current(&self) -> Option<&'a Value> {
        match (self.base.get(self.bi), self.tail.get(self.ti)) {
            (Some((b, _)), Some((t, _))) => {
                if b.total_cmp(t) == Ordering::Less {
                    Some(b)
                } else {
                    Some(t)
                }
            }
            (Some((b, _)), None) => Some(b),
            (None, Some((t, _))) => Some(t),
            (None, None) => None,
        }
    }

    /// Gallop both runs to the first candidate ≥ `bound`; returns the
    /// search steps taken.
    fn seek_geq(&mut self, bound: &Value) -> u64 {
        let (bi, s1) = gallop_geq(self.base, self.bi, bound);
        self.bi = bi;
        let (ti, s2) = gallop_geq(self.tail, self.ti, bound);
        self.ti = ti;
        self.settle();
        s1 + s2
    }

    /// Step past the current candidate.
    fn advance(&mut self) {
        match (self.base.get(self.bi), self.tail.get(self.ti)) {
            (Some((b, _)), Some((t, _))) => {
                // Runs are disjoint: exactly one holds the current min.
                if b.total_cmp(t) == Ordering::Less {
                    self.bi += 1;
                    self.settle();
                } else {
                    self.ti += 1;
                }
            }
            (Some(_), None) => {
                self.bi += 1;
                self.settle();
            }
            (None, Some(_)) => self.ti += 1,
            (None, None) => {}
        }
    }
}

/// One sub-index entry: the candidates of one variable under one bound
/// prefix, in the operator's chosen backend.
#[derive(Clone, Debug)]
enum CandidateSet {
    /// Hash-trie backend: value → summed multiplicity, pruned at zero.
    Hash(FxHashMap<Value, i64>),
    /// Sorted-run backend (leapfrog + galloping).
    Sorted(SortedSet),
}

impl CandidateSet {
    fn new_entry(sorted: bool, v: Value, m: i64) -> CandidateSet {
        if sorted {
            CandidateSet::Sorted(SortedSet::with_entry(v, m))
        } else {
            let mut inner = FxHashMap::default();
            inner.insert(v, m);
            CandidateSet::Hash(inner)
        }
    }

    fn add(&mut self, v: &Value, m: i64) {
        match self {
            CandidateSet::Hash(inner) => {
                let c = inner.entry(v.clone()).or_insert(0);
                *c += m;
                if *c == 0 {
                    inner.remove(v);
                }
            }
            CandidateSet::Sorted(set) => set.add(v, m),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            CandidateSet::Hash(inner) => inner.is_empty(),
            CandidateSet::Sorted(set) => set.is_empty(),
        }
    }
}

/// One probe order over an input: bound variables (the lookup key) →
/// candidate values of one further variable, with summed multiplicities
/// (entries are pruned at zero, so presence ⇔ support).
#[derive(Clone, Debug)]
struct SubIndex {
    /// Global variable ids of the lookup key, ascending.
    key_vars: Vec<usize>,
    /// Column positions of `key_vars` in this input's tuples.
    key_cols: Vec<usize>,
    /// The variable whose candidates this index yields.
    val_var: usize,
    /// Column position of `val_var`.
    val_col: usize,
    /// Key values (in `key_vars` order) → candidate set.
    map: FxHashMap<Tuple, CandidateSet>,
}

/// Memory and static wiring of one input position.
#[derive(Clone, Debug)]
struct InputState {
    /// Distinct global variable ids bound by this input, ascending.
    vars: Vec<usize>,
    /// First column carrying each of `vars`.
    cols: Vec<usize>,
    /// Column pairs that must agree (the same variable mapped twice);
    /// tuples violating one can never join and are not stored.
    dup_checks: Vec<(usize, usize)>,
    /// Candidate-set backend: sorted runs (true) or hash tries.
    sorted: bool,
    /// Full binding (values of `vars`, in order) → multiplicity.
    full: FxHashMap<Tuple, i64>,
    /// Probe orders required by the delta rules and replay.
    indexes: Vec<SubIndex>,
}

impl InputState {
    /// Multiplicity of the current binding projected onto this input.
    fn full_count(&self, binding: &[Value], scratch: &mut Vec<Value>) -> i64 {
        scratch.clear();
        scratch.extend(self.vars.iter().map(|&v| binding[v].clone()));
        self.full
            .get(&Tuple::from_slice(scratch))
            .copied()
            .unwrap_or(0)
    }

    /// Fold one signed update into the full map and every sub-index.
    fn fold(&mut self, t: &Tuple, m: i64) {
        use std::collections::hash_map::Entry;
        if self.dup_checks.iter().any(|&(a, b)| t.get(a) != t.get(b)) {
            return;
        }
        let key = Tuple::new(self.cols.iter().map(|&c| t.get(c).clone()).collect());
        match self.full.entry(key) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += m;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(v) => {
                v.insert(m);
            }
        }
        let sorted = self.sorted;
        for idx in &mut self.indexes {
            let kt = Tuple::new(idx.key_cols.iter().map(|&c| t.get(c).clone()).collect());
            let val = t.get(idx.val_col);
            match idx.map.entry(kt) {
                Entry::Occupied(mut e) => {
                    e.get_mut().add(val, m);
                    if e.get().is_empty() {
                        e.remove();
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(CandidateSet::new_entry(sorted, val.clone(), m));
                }
            }
        }
    }
}

/// One enumeration position of a rule: the variable to bind and the
/// `(input, index slot)` pairs whose candidate sets constrain it.
#[derive(Clone, Debug)]
struct Step {
    var: usize,
    consults: Vec<(usize, usize)>,
}

/// One delta rule (seed input `i`), or the full-replay pseudo-rule.
#[derive(Clone, Debug)]
struct Rule {
    /// `(variable, seed column)` pairs bound directly from a seed tuple.
    seed_binds: Vec<(usize, usize)>,
    /// Inputs whose variables the seed binds completely — checked (and
    /// multiplied in) before enumeration starts.
    prechecks: Vec<usize>,
    /// Remaining variables in ascending global order.
    steps: Vec<Step>,
    /// Inputs that participate in enumeration; their full-map count
    /// scales the final multiplicity.
    finals: Vec<usize>,
}

/// Is sorted `a` a subset of sorted `b`?
fn subset_of(a: &[usize], b: &[usize]) -> bool {
    let mut j = 0;
    'outer: for &x in a {
        while j < b.len() {
            let y = b[j];
            j += 1;
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

/// Find or create the sub-index of `input` keyed by `key_vars` yielding
/// candidates for `val_var`.
fn intern_index(input: &mut InputState, key_vars: Vec<usize>, val_var: usize) -> usize {
    if let Some(ix) = input
        .indexes
        .iter()
        .position(|x| x.key_vars == key_vars && x.val_var == val_var)
    {
        return ix;
    }
    let to_col = |v: usize| input.cols[input.vars.binary_search(&v).expect("var of this input")];
    let key_cols = key_vars.iter().map(|&v| to_col(v)).collect();
    let val_col = to_col(val_var);
    input.indexes.push(SubIndex {
        key_vars,
        key_cols,
        val_var,
        val_col,
        map: FxHashMap::default(),
    });
    input.indexes.len() - 1
}

/// Build the rule for `seed` (`None` = the replay pseudo-rule with
/// nothing bound), interning whatever sub-indexes it needs.
fn build_rule(inputs: &mut [InputState], nvars: usize, seed: Option<usize>) -> Rule {
    let bound: Vec<usize> = seed.map(|s| inputs[s].vars.clone()).unwrap_or_default();
    let seed_binds: Vec<(usize, usize)> = seed
        .map(|s| {
            inputs[s]
                .vars
                .iter()
                .copied()
                .zip(inputs[s].cols.iter().copied())
                .collect()
        })
        .unwrap_or_default();
    let mut prechecks = Vec::new();
    let mut finals = Vec::new();
    for (j, input) in inputs.iter().enumerate() {
        if Some(j) == seed {
            continue;
        }
        if subset_of(&input.vars, &bound) {
            prechecks.push(j);
        } else {
            finals.push(j);
        }
    }
    let mut steps = Vec::new();
    for v in 0..nvars {
        if bound.binary_search(&v).is_ok() {
            continue;
        }
        let mut consults = Vec::new();
        for (j, input) in inputs.iter_mut().enumerate() {
            if Some(j) == seed || input.vars.binary_search(&v).is_err() {
                continue;
            }
            // A variable `w` of input `j` is already bound when `v` is
            // enumerated iff the seed bound it, or it precedes `v` in
            // the ascending enumeration.
            let key_vars: Vec<usize> = input
                .vars
                .iter()
                .copied()
                .filter(|&w| w != v && (w < v || bound.binary_search(&w).is_ok()))
                .collect();
            let slot = intern_index(input, key_vars, v);
            consults.push((j, slot));
        }
        debug_assert!(
            !consults.is_empty(),
            "variable {v} occurs in no probe-able input"
        );
        steps.push(Step { var: v, consults });
    }
    Rule {
        seed_binds,
        prechecks,
        steps,
        finals,
    }
}

/// Hash-trie intersection: iterate the smallest map, probe the rest.
#[allow(clippy::too_many_arguments)]
fn intersect_hash<S: RowSink + ?Sized>(
    inputs: &[InputState],
    rule: &Rule,
    step_ix: usize,
    var: usize,
    maps: &[&FxHashMap<Value, i64>],
    binding: &mut [Value],
    scratch: &mut Vec<Value>,
    mult: i64,
    out: &mut S,
) -> Counters {
    let mut work = Counters::default();
    let mut min_ix = 0;
    for (k, inner) in maps.iter().enumerate() {
        if inner.len() < maps[min_ix].len() {
            min_ix = k;
        }
    }
    'vals: for val in maps[min_ix].keys() {
        for (k, inner) in maps.iter().enumerate() {
            if k == min_ix {
                continue;
            }
            work.intersect_probes += 1;
            if !inner.contains_key(val) {
                continue 'vals;
            }
        }
        binding[var] = val.clone();
        work += enumerate(inputs, rule, step_ix + 1, binding, scratch, mult, out);
    }
    work
}

/// Sorted-run intersection: leapfrog all cursors to each common value,
/// galloping past the gaps.
#[allow(clippy::too_many_arguments)]
fn intersect_sorted<S: RowSink + ?Sized>(
    inputs: &[InputState],
    rule: &Rule,
    step_ix: usize,
    var: usize,
    sets: &[&SortedSet],
    binding: &mut [Value],
    scratch: &mut Vec<Value>,
    mult: i64,
    out: &mut S,
) -> Counters {
    let mut work = Counters::default();
    let k = sets.len();
    let mut cursors: Vec<SetCursor> = sets.iter().map(|s| SetCursor::new(s)).collect();
    if k == 1 {
        while let Some(v) = cursors[0].current() {
            binding[var] = v.clone();
            work += enumerate(inputs, rule, step_ix + 1, binding, scratch, mult, out);
            cursors[0].advance();
        }
        return work;
    }
    // Candidate = cursor 0's current; leapfrog the others round-robin
    // until all k cursors agree on it (raising it whenever a cursor
    // overshoots) or some cursor exhausts.
    'outer: while let Some(v0) = cursors[0].current() {
        let mut hi = v0.clone();
        let mut agreed = 1usize;
        let mut idx = 1usize;
        while agreed < k {
            let c = &mut cursors[idx % k];
            work.intersect_probes += 1;
            work.gallop_steps += c.seek_geq(&hi);
            match c.current() {
                None => break 'outer,
                Some(v) => {
                    if v.total_cmp(&hi) == Ordering::Equal {
                        agreed += 1;
                    } else {
                        hi = v.clone();
                        agreed = 1;
                    }
                }
            }
            idx += 1;
        }
        binding[var] = hi;
        work += enumerate(inputs, rule, step_ix + 1, binding, scratch, mult, out);
        cursors[0].advance();
    }
    work
}

/// Enumerate the unbound variables of `rule` (from `step_ix` on) over
/// the current `binding`, emitting every complete binding with its
/// multiplicity product. Per variable: look up each consulted input's
/// candidate set under the bound prefix and intersect — leapfrog with
/// galloping on the sorted backend, iterate-smallest/probe-rest on the
/// hash backend. Returns the work done.
fn enumerate<S: RowSink + ?Sized>(
    inputs: &[InputState],
    rule: &Rule,
    step_ix: usize,
    binding: &mut [Value],
    scratch: &mut Vec<Value>,
    mult: i64,
    out: &mut S,
) -> Counters {
    let Some(step) = rule.steps.get(step_ix) else {
        let mut total = mult;
        for &j in &rule.finals {
            total *= inputs[j].full_count(binding, scratch);
            if total == 0 {
                return Counters::default();
            }
        }
        out.push_row(Row::Assembled(binding), total);
        return Counters {
            wcoj_tuples_emitted: 1,
            ..Counters::default()
        };
    };
    let mut sets: Vec<&CandidateSet> = Vec::with_capacity(step.consults.len());
    for &(j, slot) in &step.consults {
        let idx = &inputs[j].indexes[slot];
        scratch.clear();
        scratch.extend(idx.key_vars.iter().map(|&v| binding[v].clone()));
        match idx.map.get(scratch.as_slice()) {
            Some(set) => sets.push(set),
            None => return Counters::default(),
        }
    }
    // All consulted sets share the operator's backend; dispatch on the
    // first. (`len` guides nothing on the sorted path — cursors gallop.)
    match sets[0] {
        CandidateSet::Hash(_) => {
            let maps: Vec<&FxHashMap<Value, i64>> = sets
                .iter()
                .map(|s| match s {
                    CandidateSet::Hash(inner) => inner,
                    CandidateSet::Sorted(_) => unreachable!("mixed candidate backends"),
                })
                .collect();
            intersect_hash(
                inputs, rule, step_ix, step.var, &maps, binding, scratch, mult, out,
            )
        }
        CandidateSet::Sorted(_) => {
            let runs: Vec<&SortedSet> = sets
                .iter()
                .map(|s| match s {
                    CandidateSet::Sorted(set) => set,
                    CandidateSet::Hash(_) => unreachable!("mixed candidate backends"),
                })
                .collect();
            intersect_sorted(
                inputs, rule, step_ix, step.var, &runs, binding, scratch, mult, out,
            )
        }
    }
}

/// The ⨝ⁿ dataflow operator. Construct with the per-input column→
/// variable maps of the planned
/// [`Fra::MultiwayJoin`](pgq_algebra::fra::Fra::MultiwayJoin); feed one
/// delta per input
/// position per transaction via [`MultiwayJoinOp::apply`].
#[derive(Clone, Debug)]
pub struct MultiwayJoinOp {
    nvars: usize,
    inputs: Vec<InputState>,
    /// Delta rule per input position.
    rules: Vec<Rule>,
    /// Full-enumeration rule (nothing bound) for replay.
    replay: Rule,
    /// Reusable binding vector (one slot per variable).
    binding: Vec<Value>,
    /// Reusable key-assembly buffer.
    scratch: Vec<Value>,
    /// Work [`MultiwayJoinOp::apply`] has done: rows emitted and the
    /// intersections' probes and gallop steps.
    counters: Counters,
}

impl MultiwayJoinOp {
    /// Build the operator for inputs whose column `c` carries variable
    /// `var_of[i][c]`; `nvars` output variables double as the
    /// elimination order. `sorted` picks the candidate backend: sorted
    /// runs (`true`) or the hash-trie fallback.
    pub fn with_backend(var_of: &[Vec<usize>], nvars: usize, sorted: bool) -> MultiwayJoinOp {
        let mut inputs: Vec<InputState> = var_of
            .iter()
            .map(|by_col| {
                let mut vars: Vec<usize> = by_col.clone();
                vars.sort_unstable();
                vars.dedup();
                let cols = vars
                    .iter()
                    .map(|&v| by_col.iter().position(|&w| w == v).expect("var present"))
                    .collect();
                let mut dup_checks = Vec::new();
                for (c, &v) in by_col.iter().enumerate() {
                    let first = by_col.iter().position(|&w| w == v).expect("var present");
                    if first != c {
                        dup_checks.push((first, c));
                    }
                }
                InputState {
                    vars,
                    cols,
                    dup_checks,
                    sorted,
                    full: FxHashMap::default(),
                    indexes: Vec::new(),
                }
            })
            .collect();
        let mut rules = Vec::with_capacity(inputs.len());
        for i in 0..inputs.len() {
            rules.push(build_rule(&mut inputs, nvars, Some(i)));
        }
        let replay = build_rule(&mut inputs, nvars, None);
        MultiwayJoinOp {
            nvars,
            inputs,
            rules,
            replay,
            binding: Vec::new(),
            scratch: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Does this operator keep sorted-run candidate sets (vs hash
    /// tries)?
    pub(crate) fn sorted_backend(&self) -> bool {
        self.inputs.first().is_none_or(|i| i.sorted)
    }

    /// This operator's work: rows emitted and the intersections'
    /// probes and gallop steps.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Distinct tuples stored across the input memories (full maps; the
    /// derived sub-indexes are not double-counted).
    pub(crate) fn memory_tuples(&self) -> usize {
        self.inputs.iter().map(|i| i.full.len()).sum()
    }

    /// Process one transaction's deltas (one per input position, in
    /// order; positions sharing an upstream node receive the same
    /// delta), appending the output delta to `out`.
    #[inline(never)]
    pub fn apply(&mut self, deltas: &[&Delta], out: &mut (impl RowSink + ?Sized)) {
        debug_assert_eq!(deltas.len(), self.inputs.len());
        let mut binding = std::mem::take(&mut self.binding);
        let mut scratch = std::mem::take(&mut self.scratch);
        binding.clear();
        binding.resize(self.nvars, Value::Null);
        for (i, delta) in deltas.iter().enumerate() {
            if !delta.is_empty() {
                let rule = &self.rules[i];
                let seed_input = &self.inputs[i];
                for (t, m) in delta.iter() {
                    if seed_input
                        .dup_checks
                        .iter()
                        .any(|&(a, b)| t.get(a) != t.get(b))
                    {
                        continue;
                    }
                    for &(v, c) in &rule.seed_binds {
                        binding[v] = t.get(c).clone();
                    }
                    let mut mult = *m;
                    for &j in &rule.prechecks {
                        mult *= self.inputs[j].full_count(&binding, &mut scratch);
                        if mult == 0 {
                            break;
                        }
                    }
                    if mult != 0 {
                        self.counters +=
                            enumerate(&self.inputs, rule, 0, &mut binding, &mut scratch, mult, out);
                    }
                }
            }
            // Fold ΔRᵢ only now: memory `i` stays pre-transaction while
            // its own delta seeds, and is post-transaction for rules > i.
            for (t, m) in delta.iter() {
                self.inputs[i].fold(t, *m);
            }
        }
        self.binding = binding;
        self.scratch = scratch;
    }

    /// Rebuild every input memory from full input bags without
    /// enumerating a single motif — the warm-recovery path. Post-state
    /// is identical to `apply(deltas, &mut discard)`: the seeded
    /// leapfrog enumeration in apply exists only to compute the
    /// discarded output (for cyclic patterns it is the dominant cost of
    /// cold re-registration), while the memories absorb exactly the
    /// folded inputs.
    pub(crate) fn restore(&mut self, deltas: &[&Delta]) {
        debug_assert_eq!(deltas.len(), self.inputs.len());
        for (i, delta) in deltas.iter().enumerate() {
            for (t, m) in delta.iter() {
                self.inputs[i].fold(t, *m);
            }
        }
    }

    /// Reconstruct the full current output bag from the memories into
    /// `out` (used when a new view attaches to this node), returning the
    /// work: rows emitted and the intersections' probes.
    pub(crate) fn replay_into(&self, out: &mut dyn RowSink) -> Counters {
        let mut binding = vec![Value::Null; self.nvars];
        let mut scratch = Vec::new();
        enumerate(
            &self.inputs,
            &self.replay,
            0,
            &mut binding,
            &mut scratch,
            1,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::fxhash::FxHashMap;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    fn d(entries: &[(&[i64], i64)]) -> Delta {
        entries.iter().map(|(v, m)| (t(v), *m)).collect()
    }

    /// Naive n-way nested-loop join over bags, as the oracle.
    fn naive(
        rels: &[Vec<(Tuple, i64)>],
        var_of: &[Vec<usize>],
        nvars: usize,
    ) -> FxHashMap<Tuple, i64> {
        fn rec(
            rels: &[Vec<(Tuple, i64)>],
            var_of: &[Vec<usize>],
            i: usize,
            binding: &mut Vec<Option<Value>>,
            mult: i64,
            out: &mut FxHashMap<Tuple, i64>,
        ) {
            if i == rels.len() {
                let vals: Vec<Value> = binding
                    .iter()
                    .map(|v| v.clone().expect("all vars bound"))
                    .collect();
                *out.entry(Tuple::new(vals)).or_insert(0) += mult;
                return;
            }
            'tuples: for (tu, m) in &rels[i] {
                let saved = binding.clone();
                for (c, &v) in var_of[i].iter().enumerate() {
                    match &binding[v] {
                        Some(x) if x != tu.get(c) => {
                            *binding = saved;
                            continue 'tuples;
                        }
                        Some(_) => {}
                        None => binding[v] = Some(tu.get(c).clone()),
                    }
                }
                rec(rels, var_of, i + 1, binding, mult * m, out);
                *binding = saved;
            }
        }
        let mut out = FxHashMap::default();
        let mut binding = vec![None; nvars];
        rec(rels, var_of, 0, &mut binding, 1, &mut out);
        out.retain(|_, m| *m != 0);
        out
    }

    /// Drive the op with a script of per-input delta batches — on BOTH
    /// candidate backends — checking the accumulated output against the
    /// naive join of the accumulated relations after every batch.
    fn check_script(var_of: Vec<Vec<usize>>, nvars: usize, script: Vec<Vec<Delta>>) {
        for sorted in [true, false] {
            let mut op = MultiwayJoinOp::with_backend(&var_of, nvars, sorted);
            assert_eq!(op.sorted_backend(), sorted);
            let n = var_of.len();
            let mut rels: Vec<Vec<(Tuple, i64)>> = vec![Vec::new(); n];
            let mut acc: FxHashMap<Tuple, i64> = FxHashMap::default();
            for batch in &script {
                assert_eq!(batch.len(), n);
                let mut out = Delta::new();
                {
                    let refs: Vec<&Delta> = batch.iter().collect();
                    op.apply(&refs, &mut out);
                }
                for (i, delta) in batch.iter().enumerate() {
                    for (tu, m) in delta.iter() {
                        rels[i].push((tu.clone(), *m));
                    }
                }
                for (tu, m) in out.iter() {
                    *acc.entry(tu.clone()).or_insert(0) += m;
                }
                acc.retain(|_, m| *m != 0);
                assert_eq!(
                    acc,
                    naive(&rels, &var_of, nvars),
                    "incremental drifted (sorted={sorted})"
                );
                // Replay must agree with the accumulated output.
                let mut replay = Delta::new();
                op.replay_into(&mut replay);
                let mut replay_map: FxHashMap<Tuple, i64> = FxHashMap::default();
                for (tu, m) in replay.iter() {
                    *replay_map.entry(tu.clone()).or_insert(0) += m;
                }
                replay_map.retain(|_, m| *m != 0);
                assert_eq!(replay_map, acc, "replay drifted (sorted={sorted})");
            }
        }
    }

    const TRI: [&[usize]; 3] = [&[0, 1], &[1, 2], &[2, 0]];

    fn tri_vars() -> Vec<Vec<usize>> {
        TRI.iter().map(|v| v.to_vec()).collect()
    }

    #[test]
    fn triangle_inserts_then_deletes() {
        check_script(
            tri_vars(),
            3,
            vec![
                // R(1,2), S(2,3), T(3,1) → triangle (1,2,3).
                vec![d(&[(&[1, 2], 1)]), d(&[(&[2, 3], 1)]), d(&[(&[3, 1], 1)])],
                // A second triangle sharing the edge R(1,2).
                vec![Delta::new(), d(&[(&[2, 4], 1)]), d(&[(&[4, 1], 1)])],
                // Delete the shared edge: both triangles retract.
                vec![d(&[(&[1, 2], -1)]), Delta::new(), Delta::new()],
            ],
        );
    }

    #[test]
    fn triangle_same_batch_all_inputs() {
        // All three edges of a triangle plus unrelated edges in ONE
        // batch — exercises the sequential old/new staging.
        check_script(
            tri_vars(),
            3,
            vec![vec![
                d(&[(&[1, 2], 1), (&[5, 6], 1)]),
                d(&[(&[2, 3], 1), (&[6, 7], 1)]),
                d(&[(&[3, 1], 1), (&[9, 5], 1)]),
            ]],
        );
    }

    #[test]
    fn triangle_multiplicities_multiply() {
        check_script(
            tri_vars(),
            3,
            vec![
                vec![d(&[(&[1, 2], 2)]), d(&[(&[2, 3], 3)]), d(&[(&[3, 1], 1)])],
                vec![Delta::new(), Delta::new(), d(&[(&[3, 1], 4)])],
            ],
        );
    }

    #[test]
    fn self_join_same_delta_at_every_position() {
        // Triangle over ONE relation: the same delta arrives at all
        // three positions (the shared-scan case).
        let edges = [
            (&[1i64, 2][..], 1i64),
            (&[2, 3][..], 1),
            (&[3, 1][..], 1),
            (&[2, 1][..], 1),
            (&[1, 3][..], 1),
            (&[3, 2][..], 1),
            (&[4, 1][..], 1),
        ];
        let batch = d(&edges);
        check_script(
            tri_vars(),
            3,
            vec![
                vec![batch.clone(), batch.clone(), batch.clone()],
                vec![
                    d(&[(&[3, 1], -1)]),
                    d(&[(&[3, 1], -1)]),
                    d(&[(&[3, 1], -1)]),
                ],
            ],
        );
    }

    #[test]
    fn repeated_variable_within_one_input() {
        // R(a,a) ⋈ S(a,b): the first input's two columns carry the same
        // variable, so tuples with unequal columns never join.
        check_script(
            vec![vec![0, 0], vec![0, 1]],
            2,
            vec![
                vec![d(&[(&[1, 1], 1), (&[2, 3], 1)]), d(&[(&[1, 9], 1)])],
                vec![d(&[(&[3, 3], 1)]), d(&[(&[3, 7], 1), (&[1, 9], -1)])],
            ],
        );
    }

    #[test]
    fn diamond_four_cycle() {
        // 4-cycle a→b→c→d→a.
        check_script(
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]],
            4,
            vec![
                vec![
                    d(&[(&[1, 2], 1)]),
                    d(&[(&[2, 3], 1)]),
                    d(&[(&[3, 4], 1)]),
                    d(&[(&[4, 1], 1)]),
                ],
                vec![
                    d(&[(&[1, 5], 1)]),
                    d(&[(&[5, 3], 1)]),
                    Delta::new(),
                    Delta::new(),
                ],
                vec![
                    Delta::new(),
                    d(&[(&[2, 3], -1)]),
                    Delta::new(),
                    Delta::new(),
                ],
            ],
        );
    }

    #[test]
    fn input_fully_bound_by_seed_precheck() {
        // R(a,b) ⋈ S(a,b) ⋈ T(b,c): for ΔT seeds, S shares only `b`…
        // and for ΔR seeds, S is *fully* bound (the precheck path).
        check_script(
            vec![vec![0, 1], vec![0, 1], vec![1, 2]],
            3,
            vec![
                vec![
                    d(&[(&[1, 2], 1), (&[1, 3], 1)]),
                    d(&[(&[1, 2], 2)]),
                    d(&[(&[2, 9], 1)]),
                ],
                vec![d(&[(&[1, 2], -1)]), Delta::new(), d(&[(&[3, 8], 1)])],
            ],
        );
    }

    #[test]
    fn hub_intersection_both_backends() {
        // A 200-degree hub against a handful of closers: every closer
        // triangle must be found on both backends (and the sorted path
        // gallops instead of scanning — asserted by the counter test
        // `crates/ivm/tests/wcoj_counters.rs`, not here).
        let mut spokes: Vec<(Tuple, i64)> = Vec::new();
        for i in 0..200i64 {
            spokes.push((t(&[1, 10 + i]), 1));
        }
        let r: Delta = spokes.iter().cloned().collect();
        let s: Delta = (0..200i64).map(|i| (t(&[10 + i, 2]), 1)).collect();
        let tt: Delta = [(t(&[2, 1]), 1)].into_iter().collect();
        check_script(
            tri_vars(),
            3,
            vec![
                vec![r, s, tt],
                // Deletion-heavy churn across the hub.
                vec![
                    d(&[(&[1, 10], -1), (&[1, 150], -1)]),
                    d(&[(&[110, 2], -1)]),
                    Delta::new(),
                ],
            ],
        );
    }

    /// The sorted-run set must agree with a BTreeMap oracle under a
    /// deterministic churn of inserts/updates/deletes (tombstones,
    /// compaction, and tail merges all exercised).
    #[test]
    fn sorted_set_matches_btree_oracle() {
        use std::collections::BTreeMap;
        let mut set = SortedSet::default();
        let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let key = (next() % 257) as i64;
            let m = if next() % 3 == 0 { -1 } else { 1 };
            set.add(&Value::Int(key), m);
            let e = oracle.entry(key).or_insert(0);
            *e += m;
            if *e == 0 {
                oracle.remove(&key);
            }
            if next() % 64 == 0 {
                let want: Vec<i64> = oracle.iter().map(|(&k, _)| k).collect();
                let mut got = Vec::new();
                let mut cur = SetCursor::new(&set);
                while let Some(v) = cur.current() {
                    match v {
                        Value::Int(i) => got.push(*i),
                        other => panic!("unexpected value {other:?}"),
                    }
                    cur.advance();
                }
                assert_eq!(got, want, "cursor order drifted from oracle");
                assert_eq!(set.len(), oracle.len());
            }
        }
    }

    /// Galloping seek lands on the first candidate ≥ bound from any
    /// starting position, across both runs.
    #[test]
    fn cursor_seek_geq_is_exact() {
        let mut set = SortedSet::default();
        for k in (0..100i64).map(|i| i * 3) {
            set.add(&Value::Int(k), 1);
        }
        // Tombstone a stretch and push tail entries between base ones.
        for k in (30..60i64).filter(|k| k % 3 == 0) {
            set.add(&Value::Int(k), -1);
        }
        for k in [1i64, 100, 200, 299] {
            set.add(&Value::Int(k), 1);
        }
        let live: Vec<i64> = {
            let mut v: Vec<i64> = (0..100i64)
                .map(|i| i * 3)
                .filter(|&k| !(30..60).contains(&k))
                .collect();
            v.extend([1, 100, 200, 299]);
            v.sort_unstable();
            v
        };
        for bound in 0..310i64 {
            let mut cur = SetCursor::new(&set);
            cur.seek_geq(&Value::Int(bound));
            let want = live.iter().copied().find(|&k| k >= bound);
            let got = cur.current().map(|v| match v {
                Value::Int(i) => *i,
                other => panic!("unexpected value {other:?}"),
            });
            assert_eq!(got, want, "seek_geq({bound})");
        }
    }
}
