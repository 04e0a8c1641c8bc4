//! Hot-path allocations, counted by this binary's own allocator (per
//! thread, so tests running in parallel count only their own):
//! steady-state join maintenance allocates its output rows and never a
//! key tuple — the whole point of the borrowed-key memories — a fused
//! σ→π program allocates one tuple per surviving output row and nothing
//! per input row or per stage, and keyed state holds a single-tuple
//! arrangement key or a one-hop ⋈* extension's list entries without
//! allocating. A ⋈ or ⋈* whose one consumer is its program runs it
//! inside its own step: a row the program rejects is never allocated,
//! one it rewrites once. Event routing is checked beside them: a change event
//! reaches only the scans that can match it, once. A byte counter beside
//! the allocation counter pins the size of the values themselves: a short
//! string allocates nothing, and a three-column row asks for 64 bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pgq_algebra::expr::ScalarExpr;
use pgq_algebra::fra::{Fra, VarLenSpec};
use pgq_algebra::program::{Scratch, TupleProgram};
use pgq_common::dir::Direction;
use pgq_common::ids::VertexId;
use pgq_common::intern::Symbol;
use pgq_common::pool::WorkerPool;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_graph::before::BeforeIndex;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::basic::program_into;
use pgq_ivm::delta::{Delta, IndexedBag};
use pgq_ivm::join::JoinOp;
use pgq_ivm::semijoin::SemiJoinOp;
use pgq_ivm::tc::VarLengthOp;
use pgq_ivm::DataflowNetwork;
use pgq_parser::ast::BinOp;

struct Counting;

thread_local! {
    /// Allocations made by this thread, so that tests running in
    /// parallel count only their own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: `Counting` holds no state besides thread-local counters
// (const-initialised `Cell`s without a destructor, so counting never
// allocates); every method forwards its arguments unchanged to the system
// allocator, so the caller's `GlobalAlloc` contract is the one `System`
// gets.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded from this method's caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded from this method's caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations made by `f`, and the bytes they asked for.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let bytes = BYTES.with(Cell::get);
    let n = allocations(f);
    (n, BYTES.with(Cell::get) - bytes)
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

/// A join with fan-out on both sides: once its row buffer is warm, a
/// delta batch allocates exactly one tuple per emitted row — probing the
/// arrangements builds no key — and the operator counts those rows.
#[test]
fn join_apply_allocates_one_tuple_per_emitted_row() {
    let mut j = JoinOp::new(vec![0], vec![0], 2);
    let mut left = IndexedBag::new(j.left_arrangement_keys().to_vec());
    let mut right = IndexedBag::new(j.right_arrangement_keys().to_vec());
    absorb(&mut left, &(0..50).map(|i| (t(&[i % 5, i]), 1)).collect());
    absorb(
        &mut right,
        &(0..50).map(|i| (t(&[i % 5, 100 + i]), 1)).collect(),
    );
    let (dl, dr) = (d(&[(&[2, 999], 1)]), d(&[(&[3, 888], 1), (&[3, 777], -1)]));
    let mut out = Delta::with_capacity(64);
    j.apply(&dl, &dr, &left, &right, &mut out);
    out.clear();

    let before = j.counters().join_tuples_emitted;
    let allocated = allocations(|| j.apply(&dl, &dr, &left, &right, &mut out));
    assert_eq!(out.len(), 30, "ten matches per probed key");
    assert_eq!(allocated, out.len() as u64, "one tuple per emitted row");
    assert_eq!(j.counters().join_tuples_emitted - before, out.len() as u64);
}

/// Semijoin steady state: the support keys already exist, so an update
/// batch probes borrowed keys only — it allocates its per-batch key
/// aggregation (a table and one bucket) and no key tuple. A brand-new
/// support key is the sanctioned exception: three allocations more —
/// the key's values, its tuple, and the new hash bucket holding it.
#[test]
fn semijoin_materialises_only_first_seen_support_keys() {
    let mut sj = SemiJoinOp::new(vec![0], vec![0], false);
    let mut left = IndexedBag::new(sj.left_arrangement_keys().to_vec());
    absorb(&mut left, &(0..20).map(|i| (t(&[i % 4, i]), 1)).collect());
    sj.restore(&(0..4).map(|i| (t(&[i]), 1)).collect());
    let mut out = Delta::with_capacity(16);

    let (dl, seen) = (d(&[(&[1, 500], 1)]), d(&[(&[2], 1)]));
    let steady = allocations(|| sj.apply(&dl, &seen, &left, &mut out));
    assert!(!out.is_empty());
    assert_eq!(steady, 2, "the batch's key aggregation, and no key");

    let (dl, fresh) = (d(&[(&[1, 501], 1)]), d(&[(&[99], 1)]));
    let first = allocations(|| sj.apply(&dl, &fresh, &left, &mut out));
    assert_eq!(
        first,
        steady + 3,
        "first sighting of a support key materialises it, once"
    );
}

/// `©(label)` as a plan.
fn scan(var: &str, label: &str) -> Fra {
    Fra::ScanVertices {
        var: var.into(),
        labels: vec![Symbol::intern(label)],
        props: vec![],
    }
}

/// Events routed to the network's scans so far.
fn delivered(net: &DataflowNetwork) -> u64 {
    net.node_summaries()
        .iter()
        .map(|n| n.delivered_events)
        .sum()
}

/// A transaction touching only label A delivers its event to the A scan
/// and to no other scan in the shared network.
#[test]
fn an_event_reaches_only_the_scans_that_can_match_it() {
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    net.register("as", &scan("a", "A"), &g);
    net.register("bs", &scan("b", "B"), &g);
    let mut tx = Transaction::new();
    tx.create_vertex([Symbol::intern("A")], Properties::new());
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);
    assert_eq!(
        delivered(&net),
        1,
        "one event, one matching scan — the B scan must receive nothing"
    );
}

/// Canonicalisation regression: the same query registered under a
/// different variable name used to build a second scan chain and double
/// every delivery. The alpha-renamed duplicate must collapse onto the
/// existing node, keeping deliveries at one per event.
#[test]
fn a_renamed_duplicate_scan_receives_each_event_once() {
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    net.register("as", &scan("a", "A"), &g);
    net.register("ps", &scan("p", "A"), &g);
    assert_eq!(net.node_count(), 1, "renamed duplicate hash-conses");
    let mut tx = Transaction::new();
    tx.create_vertex([Symbol::intern("A")], Properties::new());
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);
    assert_eq!(delivered(&net), 1, "two renamed views, one collapsed scan");
}

/// The same transaction propagated inline and through a 4-thread worker
/// pool delivers each event exactly once per matching scan: routing runs
/// before the level loop, and no worker re-delivers.
#[test]
fn a_pooled_pass_delivers_each_event_once() {
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
    net.on_transaction(&g, &events);
    assert_eq!(delivered(&net), 2, "two events, one matching scan each");

    let (g, mut pooled, events) = build();
    pooled.on_transaction_with(&g, &events, Some(&WorkerPool::new(4)));
    assert_eq!(
        pooled.node_summaries(),
        net.node_summaries(),
        "the pooled pass must not deliver any event twice"
    );
}

/// A σ→π chain is one program: `π[b, a + 1] σ[a > 5]` over 64 rows, 58
/// of which survive. Steady state — the node's scratch is warm and its
/// output buffer pooled — allocates one tuple per surviving row.
#[test]
fn a_sigma_pi_program_allocates_one_tuple_per_surviving_row() {
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
}

/// A key holding one tuple keeps it in the table entry: once the table
/// has grown, inserting and then retracting single-tuple keys allocates
/// nothing.
#[test]
fn single_tuple_keys_allocate_nothing_in_steady_state() {
    let mut bag = IndexedBag::new(vec![0]);
    let tuples: Vec<Tuple> = (0..64).map(|i| t(&[i, 10 * i])).collect();
    for tu in &tuples {
        bag.update(tu, 1);
    }
    for tu in &tuples {
        bag.update(tu, -1);
    }
    assert_eq!(bag.key_counts(), (0, 0));
    let churn = allocations(|| {
        for batch in tuples.chunks(16) {
            for tu in batch {
                bag.update(tu, 1);
            }
            assert_eq!(bag.key_counts(), (16, 16), "every key inline");
            for tu in batch {
                bag.update(tu, -1);
            }
        }
    });
    assert_eq!(churn, 0, "a single-tuple key costs no allocation");
    assert_eq!(bag.distinct_len(), 0);
}

/// Extending a ⋈* chain by one hop allocates the new path (its `Arc` and
/// the path's vertex and edge `Vec`s) and the output row — nothing for
/// the hop, which the edge scan hands over as three ids, and nothing for
/// the trie's lists: the new node enters its parent's `children`, its
/// target's `ending` and its edge's `by_last_edge` inline, as the hop
/// enters its source's `out`.
#[test]
fn one_hop_extension_allocates_only_the_path_and_the_row() {
    let r = Symbol::intern("R");
    let mut g = PropertyGraph::new();
    let chain: Vec<_> = (0..4)
        .map(|_| g.add_vertex([Symbol::intern("N")], Properties::new()).0)
        .collect();
    for w in chain.windows(2) {
        g.add_edge(w[0], w[1], r, Properties::new()).unwrap();
    }
    let spec = VarLenSpec {
        types: vec![r],
        dir: Direction::Out,
        dst_labels: vec![],
        dst_props: vec![],
        edge_prop_filters: vec![],
        min: 1,
        max: None,
    };
    let mut op = VarLengthOp::new(1, 0, &spec);
    let left: Delta = [(Tuple::new(vec![Value::Node(chain[0])]), 1)]
        .into_iter()
        .collect();
    op.initial(&g, left);
    assert_eq!(op.path_count(), 3);

    let tail = chain[3];
    let no_left = Delta::new();
    let mut out = Delta::with_capacity(4);
    let mut index = BeforeIndex::new();
    let mut pass = |g: &PropertyGraph, events: &[ChangeEvent], out: &mut Delta| {
        op.on_events_into(&index.build(g, events), events, &no_left, out);
    };
    // Warm-up: grow every map and buffer once, then drop the hop again.
    let (w, ev) = g.add_vertex([Symbol::intern("N")], Properties::new());
    let (e, ev2) = g.add_edge(tail, w, r, Properties::new()).unwrap();
    pass(&g, &[ev, ev2], &mut out);
    let ev = g.remove_edge(e).unwrap();
    pass(&g, &[ev], &mut out);

    let (w, ev) = g.add_vertex([Symbol::intern("N")], Properties::new());
    let (_, ev2) = g.add_edge(tail, w, r, Properties::new()).unwrap();
    let events = [ev, ev2];
    out.clear();
    let hop = allocations(|| pass(&g, &events, &mut out));
    assert_eq!(out.len(), 1, "one new path from the anchor: {out:?}");
    assert_eq!(op.path_count(), 4);
    assert_eq!(hop, 3 + 1, "path + output row");
}

/// `Value` is sixteen bytes: a string of at most 14 bytes is held in the
/// value, with no allocation, and a three-column row of node ids is one
/// 64-byte request — a 16-byte `Arc` header and three 16-byte values (88
/// when a value was 24 bytes, which a size-classed allocator rounds to 96).
#[test]
fn short_strings_are_inline_and_a_three_column_row_is_64_bytes() {
    let mut v = Value::Null;
    for s in ["", "en", "fourteen bytes", "thirteen byteé"] {
        // A longer one is two: the thin `Arc` and the string it points to.
        let (n, _) = allocated(|| v = Value::str(s));
        assert_eq!(n, 2 * u64::from(s.len() > 14), "{s:?}");
    }
    assert_eq!(v.as_str(), Some("thirteen byteé"));
    let row = [1, 2, 3].map(|i| Value::Node(VertexId(i)));
    let mut tu = Tuple::unit();
    assert_eq!(allocated(|| tu = Tuple::from_slice(&row)), (1, 64));
    assert_eq!(tu.values(), row);
}

/// `query` compiled, registered on `g` in a fresh network.
fn network_of(query: &str, g: &PropertyGraph) -> DataflowNetwork {
    let fra = pgq_algebra::compile_query(&pgq_parser::parse_query(query).unwrap())
        .unwrap()
        .fra;
    let mut net = DataflowNetwork::new();
    net.register("v", &fra, g);
    net
}

/// A ⋈ whose one consumer is its σ→π program runs the program inside its
/// own step: a join row the σ rejects is never allocated. A new `S` hop
/// out of `b` meets the twenty `R` hops into it, and the σ rejects all
/// twenty rows: the pass allocates the hop's scan tuple and nothing else.
/// (The σ is a `>`: an `a.x = c.x` would key the ⋈ by value, which then
/// emits none of the twenty.)
#[test]
fn a_fused_join_row_its_program_rejects_allocates_nothing() {
    let sym = Symbol::intern;
    let x = |v: i64| Properties::from_iter([("x", Value::Int(v))]);
    let mut g = PropertyGraph::new();
    let (b, _) = g.add_vertex([sym("B")], Properties::new());
    for _ in 0..20 {
        let (a, _) = g.add_vertex([sym("A")], x(1));
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
    }
    let cs: Vec<VertexId> = (0..2).map(|_| g.add_vertex([sym("C")], x(2)).0).collect();
    let mut net = network_of(
        "MATCH (a:A)-[:R]->(b:B)-[:S]->(c:C) WHERE a.x > c.x RETURN a, c",
        &g,
    );
    let labels: Vec<String> = net.node_summaries().into_iter().map(|n| n.label).collect();
    assert!(labels.iter().any(|l| l == "⋈") && labels.iter().any(|l| l.starts_with("σ→π")));

    let hop = |g: &mut PropertyGraph, net: &mut DataflowNetwork, c: VertexId| {
        let (e, ev) = g.add_edge(b, c, sym("S"), Properties::new()).unwrap();
        let before = net.counters().join_tuples_emitted;
        let allocated = allocations(|| net.on_transaction(g, &[ev]));
        assert_eq!(net.counters().join_tuples_emitted - before, 20);
        assert!(net.changed_sinks().is_empty(), "the σ rejects every row");
        let ev = g.remove_edge(e).unwrap();
        net.on_transaction(g, &[ev]);
        allocated
    };
    // Warm-up: grow every map and buffer once.
    hop(&mut g, &mut net, cs[0]);
    assert_eq!(
        hop(&mut g, &mut net, cs[1]),
        1,
        "the scan tuple, no join row"
    );
}

/// A ⋈* whose one consumer is its σ→π program: a new path that survives
/// the program is allocated once, as the program's output row — the
/// path (its `Arc` and two `Vec`s) and that row; the hop costs nothing.
#[test]
fn a_fused_var_length_row_that_survives_its_program_allocates_once() {
    let r = Symbol::intern("R");
    let en = || Properties::from_iter([("lang", Value::str("en"))]);
    let mut g = PropertyGraph::new();
    let chain: Vec<VertexId> = (0..4)
        .map(|i| {
            let labels = (i == 0).then(|| Symbol::intern("P"));
            g.add_vertex(labels, en()).0
        })
        .collect();
    for w in chain.windows(2) {
        g.add_edge(w[0], w[1], r, Properties::new()).unwrap();
    }
    let ends: Vec<VertexId> = (0..2).map(|_| g.add_vertex([], en()).0).collect();
    let mut net = network_of(
        "MATCH t = (p:P)-[:R*]->(c) WHERE p.lang = c.lang RETURN p, t",
        &g,
    );
    let labels: Vec<String> = net.node_summaries().into_iter().map(|n| n.label).collect();
    assert!(labels.iter().any(|l| l.starts_with("⋈*")));
    assert!(labels.iter().any(|l| l.starts_with("σ→π")), "{labels:?}");
    assert_eq!(net.view_named("v").unwrap().row_count(), 3);

    let tail = chain[3];
    let hop = |g: &mut PropertyGraph, net: &mut DataflowNetwork, w: VertexId| {
        let (e, ev) = g.add_edge(tail, w, r, Properties::new()).unwrap();
        let allocated = allocations(|| net.on_transaction(g, &[ev]));
        assert_eq!(
            net.last_delta(net.changed_sinks()[0]).len(),
            1,
            "one new path"
        );
        let ev = g.remove_edge(e).unwrap();
        net.on_transaction(g, &[ev]);
        allocated
    };
    // Warm-up: grow every map and buffer once.
    hop(&mut g, &mut net, ends[0]);
    assert_eq!(hop(&mut g, &mut net, ends[1]), 3 + 1, "path + row");
}
