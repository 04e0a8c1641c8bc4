//! Counter-pinning for the ⨝ⁿ intersection on a known hub motif: the
//! sorted-run backend must *gallop* through a hub-degree candidate list
//! (probe counts bounded by the intersection output, not the input
//! degree), while the hash-trie backend pays one probe per element of
//! the smallest input. Guards against an accidental quadratic (or
//! linear-in-degree) fallback in the leapfrog cursors.

use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_ivm::delta::Delta;
use pgq_ivm::wcoj::MultiwayJoinOp;
use pgq_ivm::Counters;

/// Hub degree of the test motif. The certified bench runs at ≥ 10k;
/// here the degree only needs to dwarf the pinned probe bounds.
const DEGREE: i64 = 1024;
/// Closing edges — the intersection output size.
const CLOSERS: i64 = 8;

fn edge(a: i64, b: i64) -> (Tuple, i64) {
    (Tuple::from_iter([Value::Int(a), Value::Int(b)]), 1)
}

/// Build a triangle operator (vars a=0, b=1, c=2 over inputs R0(a,b),
/// R1(b,c), R2(c,a)) seeded with the two-hub motif: R1 = out(hub 1) is
/// a high block of `DEGREE` values, R2 = in(hub 0) is a low block of
/// `DEGREE` values plus `CLOSERS` values from the high block. R0 is
/// left empty; the measured delta is the bridge edge (0, 1), whose pass
/// intersects the two hub-degree lists to bind c.
fn seeded(sorted: bool) -> MultiwayJoinOp {
    let var_of = vec![vec![0, 1], vec![1, 2], vec![2, 0]];
    let mut op = MultiwayJoinOp::with_backend(&var_of, 3, sorted);
    let r0 = Delta::default();
    let mut r1 = Delta::default();
    let mut r2 = Delta::default();
    for i in 0..DEGREE {
        let (t, m) = edge(1, 10_000 + i); // high block: out(hub 1)
        r1.push(t, m);
        let (t, m) = edge(100 + i, 0); // low block: in(hub 0)
        r2.push(t, m);
    }
    for k in 0..CLOSERS {
        // Every 128th high-block value also points at hub 0.
        let (t, m) = edge(10_000 + k * (DEGREE / CLOSERS), 0);
        r2.push(t, m);
    }
    let mut ignore = Delta::default();
    op.apply(&[&r0, &r1, &r2], &mut ignore);
    op
}

/// Intersection work of one bridge-edge delta (insert then delete)
/// through a freshly seeded operator; also checks the output bag.
fn measure(sorted: bool) -> Counters {
    let mut op = seeded(sorted);
    let bridge = Delta::from_iter([edge(0, 1)]);
    let empty = Delta::default();
    let before = op.counters();
    let mut out = Delta::default();
    op.apply(&[&bridge, &empty, &empty], &mut out);
    out.consolidate_in_place();
    assert_eq!(
        out.iter().count(),
        CLOSERS as usize,
        "bridge insert must emit one triangle per closer (sorted={sorted})"
    );
    assert!(out.iter().all(|(_, m)| *m == 1));
    let retract = Delta::from_iter([(Tuple::from_iter([Value::Int(0), Value::Int(1)]), -1)]);
    let mut out = Delta::default();
    op.apply(&[&retract, &empty, &empty], &mut out);
    out.consolidate_in_place();
    assert_eq!(out.iter().count(), CLOSERS as usize);
    assert!(out.iter().all(|(_, m)| *m == -1));
    let after = op.counters();
    assert_eq!(
        after.wcoj_tuples_emitted - before.wcoj_tuples_emitted,
        2 * CLOSERS as u64
    );
    Counters {
        intersect_probes: after.intersect_probes - before.intersect_probes,
        gallop_steps: after.gallop_steps - before.gallop_steps,
        ..Counters::default()
    }
}

#[test]
fn sorted_intersections_gallop_past_hub_degree() {
    let sorted = measure(true);
    let hash = measure(false);

    // The hash trie iterates the smallest candidate set — hub degree —
    // probing the other side per element, for both the insert and the
    // retraction.
    assert!(
        hash.intersect_probes >= 2 * DEGREE as u64,
        "hash backend should pay per-element probes at hub degree: {hash:?}"
    );
    assert_eq!(hash.gallop_steps, 0, "hash backend never gallops: {hash:?}");

    // The sorted backend leapfrogs: seeks are bounded by the output
    // (closers), not the degree — two orders of magnitude under the
    // hash probe count at this scale — and galloping takes logarithmic
    // steps per seek. The bounds are loose (4× headroom over measured)
    // but far below any linear-in-degree regression.
    assert!(
        sorted.intersect_probes <= 256,
        "sorted backend must not scan hub-degree lists: {sorted:?}"
    );
    assert!(
        sorted.gallop_steps > 0,
        "sorted backend should gallop: {sorted:?}"
    );
    assert!(
        sorted.gallop_steps <= 2_048,
        "gallop steps should stay logarithmic per seek: {sorted:?}"
    );
    assert!(
        sorted.intersect_probes * 8 <= hash.intersect_probes,
        "galloping should beat per-element probing by a wide margin: sorted {sorted:?} vs hash {hash:?}"
    );
}
