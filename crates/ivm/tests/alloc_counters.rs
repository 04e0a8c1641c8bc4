//! With the `ivm-stats` feature on, the hot-path counters must show that
//! steady-state join maintenance materialises **zero** key tuples per
//! match — the whole point of the borrowed-key memories — while still
//! doing real probe work. A counting allocator (this binary's own) shows
//! the same for a fused σ→π program: one allocation per surviving output
//! row, nothing per input row or per stage.
//!
//! Run with `cargo test -p pgq_ivm --features ivm-stats`.
#![cfg(feature = "ivm-stats")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pgq_algebra::expr::ScalarExpr;
use pgq_algebra::program::{Scratch, TupleProgram};
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_ivm::basic::{program_in_place, program_into};
use pgq_ivm::delta::{Delta, IndexedBag};
use pgq_ivm::join::JoinOp;
use pgq_ivm::semijoin::SemiJoinOp;
use pgq_ivm::stats::counters;
use pgq_parser::ast::BinOp;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: `Counting` holds no state besides a relaxed counter; every
// method forwards its arguments unchanged to the system allocator, so the
// caller's `GlobalAlloc` contract is the one `System` gets.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from this method's caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from this method's caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from this method's caller; `ptr` came from
        // `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn t(vals: &[i64]) -> Tuple {
    vals.iter().map(|&i| Value::Int(i)).collect()
}

fn d(entries: &[(&[i64], i64)]) -> Delta {
    entries.iter().map(|(v, m)| (t(v), *m)).collect()
}

/// Apply `delta` to `bag`, as the network does after a pass.
fn absorb(bag: &mut IndexedBag, delta: &Delta) {
    for (t, m) in delta.iter() {
        bag.update(t, *m);
    }
}

/// The counters are process-globals, so keep all assertions in one test
/// (the default test harness runs tests in parallel threads).
#[test]
fn join_hot_path_materialises_no_keys() {
    // Seed a join with fan-out on both sides.
    let mut j = JoinOp::new(vec![0], vec![0], 2);
    let mut left = IndexedBag::new(j.left_arrangement_keys().to_vec());
    let mut right = IndexedBag::new(j.right_arrangement_keys().to_vec());
    absorb(&mut left, &(0..50).map(|i| (t(&[i % 5, i]), 1)).collect());
    absorb(
        &mut right,
        &(0..50).map(|i| (t(&[i % 5, 100 + i]), 1)).collect(),
    );

    // Steady state: a delta batch through the join must do probe work
    // but allocate no key tuples at all.
    counters::reset();
    let mut out = Delta::new();
    j.apply(
        &d(&[(&[2, 999], 1)]),
        &d(&[(&[3, 888], 1), (&[3, 777], -1)]),
        &left,
        &right,
        &mut out,
    );
    let snap = counters::snapshot();
    assert!(!out.is_empty(), "the batch should produce matches");
    assert!(
        snap.probe_hits > 0,
        "probes should have yielded matches: {snap:?}"
    );
    assert_eq!(
        snap.key_materializations, 0,
        "JoinOp::apply must not materialise key tuples: {snap:?}"
    );

    // Semijoin steady state: support keys already exist, so an update
    // batch probes borrowed keys only.
    let mut sj = SemiJoinOp::new(vec![0], vec![0], false);
    let mut left = IndexedBag::new(sj.left_arrangement_keys().to_vec());
    absorb(&mut left, &(0..20).map(|i| (t(&[i % 4, i]), 1)).collect());
    sj.restore(&(0..4).map(|i| (t(&[i]), 1)).collect());
    counters::reset();
    let mut out = Delta::new();
    sj.apply(&d(&[(&[1, 500], 1)]), &d(&[(&[2], 1)]), &left, &mut out);
    let snap = counters::snapshot();
    assert!(!out.is_empty());
    assert_eq!(
        snap.key_materializations, 0,
        "steady-state semijoin must not materialise key tuples: {snap:?}"
    );

    // A brand-new support key is the sanctioned exception: exactly one
    // materialisation.
    counters::reset();
    sj.apply(&Delta::new(), &d(&[(&[99], 1)]), &left, &mut out);
    let snap = counters::snapshot();
    assert_eq!(
        snap.key_materializations, 1,
        "first sighting of a support key materialises exactly once: {snap:?}"
    );

    // Event routing: a transaction touching only label A delivers its
    // event to the A scan and to no other scan in the shared network.
    use pgq_algebra::fra::Fra;
    use pgq_common::intern::Symbol;
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;
    use pgq_graph::tx::Transaction;
    use pgq_ivm::DataflowNetwork;

    let scan = |var: &str, label: &str| Fra::ScanVertices {
        var: var.into(),
        labels: vec![Symbol::intern(label)],
        props: vec![],
        carry_map: false,
    };
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    net.register("as", &scan("a", "A"), &g);
    net.register("bs", &scan("b", "B"), &g);

    let mut tx = Transaction::new();
    tx.create_vertex([Symbol::intern("A")], Properties::new());
    let events = g.apply(&tx).unwrap();
    counters::reset();
    net.on_transaction(&g, &events);
    let snap = counters::snapshot();
    assert_eq!(
        snap.scan_events_delivered, 1,
        "one event, one matching scan — the B scan must receive nothing: {snap:?}"
    );

    // Canonicalisation regression: the same query registered under a
    // different variable name used to build a second scan chain and
    // double every delivery. The alpha-renamed duplicate must collapse
    // onto the existing node, keeping the global delivery count at one
    // per event.
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    net.register("as", &scan("a", "A"), &g);
    net.register("ps", &scan("p", "A"), &g);
    assert_eq!(net.node_count(), 1, "renamed duplicate hash-conses");
    let mut tx = Transaction::new();
    tx.create_vertex([Symbol::intern("A")], Properties::new());
    let events = g.apply(&tx).unwrap();
    counters::reset();
    net.on_transaction(&g, &events);
    let snap = counters::snapshot();
    assert_eq!(
        snap.scan_events_delivered, 1,
        "two renamed views, one collapsed scan: each event is delivered once: {snap:?}"
    );

    // Parallel scheduler: the same transaction propagated serially and
    // through a 4-thread worker pool must deliver each event exactly
    // once per matching scan — the dirty-closure may schedule extra
    // nodes as no-ops, but routing stays serial and nothing is
    // re-delivered by the workers.
    use pgq_common::pool::WorkerPool;

    let build = || {
        let mut g = PropertyGraph::new();
        let mut net = DataflowNetwork::new();
        net.register("as", &scan("a", "A"), &g);
        net.register("bs", &scan("b", "B"), &g);
        let mut tx = Transaction::new();
        tx.create_vertex([Symbol::intern("A")], Properties::new());
        tx.create_vertex([Symbol::intern("B")], Properties::new());
        let events = g.apply(&tx).unwrap();
        (g, net, events)
    };
    let (g, mut net, events) = build();
    counters::reset();
    net.on_transaction(&g, &events);
    let serial_delivered = counters::snapshot().scan_events_delivered;
    assert_eq!(
        serial_delivered, 2,
        "two events, one matching scan each (serial)"
    );

    let (g, mut net, events) = build();
    let pool = WorkerPool::new(4);
    counters::reset();
    net.on_transaction_with(&g, &events, Some(&pool));
    let par_delivered = counters::snapshot().scan_events_delivered;
    assert_eq!(
        par_delivered, serial_delivered,
        "parallel pass must not deliver any event twice"
    );

    // A σ→π chain is one program: `π[b, a + 1] σ[a > 5]` over 64 rows,
    // 58 of which survive. Steady state — the node's scratch is warm and
    // its output buffer pooled — allocates one tuple per surviving row,
    // through a borrowed input and in place alike.
    let col = |i| Box::new(ScalarExpr::Col(i));
    let lit = |v: i64| Box::new(ScalarExpr::Lit(Value::Int(v)));
    let chain = Fra::Project {
        input: Box::new(Fra::Filter {
            input: Box::new(Fra::Unit),
            predicate: ScalarExpr::Binary(BinOp::Gt, col(0), lit(5)),
        }),
        items: vec![
            (ScalarExpr::Col(1), "b".into()),
            (ScalarExpr::Binary(BinOp::Add, col(0), lit(1)), "a1".into()),
        ],
    };
    let (program, _) = TupleProgram::compile(&chain).unwrap();
    assert_eq!(program.to_string(), "σ→π [5]");
    let input: Delta = (0..64).map(|i| (t(&[i, 2 * i]), 1)).collect();
    let mut scratch = Scratch::default();
    let mut out = Delta::with_capacity(64);
    program_into(&program, &input, &mut scratch, &mut out);
    out.clear();
    let borrowed = allocations(|| program_into(&program, &input, &mut scratch, &mut out));
    assert_eq!(out.len(), 58);
    assert_eq!(borrowed, 58, "one tuple per surviving row");
    let owned = input.clone();
    let mut rewritten = Delta::new();
    let in_place = allocations(|| rewritten = program_in_place(&program, owned, &mut scratch));
    assert_eq!(rewritten, out);
    assert_eq!(in_place, 58, "one tuple per surviving row, in place");
}
