//! Registration allocates for what it keeps, not for what passes
//! through it. Cold: the rows of a join that only feeds a σ are
//! streamed, not materialised — `view_churn`'s cold two-hop view, its
//! `a.country = c.country` written so that no join can key on it, on a
//! graph where the two-hop join is 8 × the result. Fully shared: an
//! alpha-renamed twin of a registered view allocates the same bytes
//! whatever the size of the result it shares. Kept: a `count(*)` view
//! holds the same live bytes over 10× the vertices, before and after
//! churn, because its scan keeps no copy of what it emitted. Work
//! counts, not timings — this test binary counts every allocation, its
//! bytes and the bytes still live through its own global allocator
//! (nothing in the library counts), on the thread that measures only.
//! Beside them, the work the value key saves: what one new edge makes
//! `view_churn`'s own cold view join.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pgq_algebra::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::DataflowNetwork;
use pgq_parser::parse_query;

struct Counting;

thread_local! {
    /// This thread's `(allocations, bytes)` so far: each test reads its
    /// own, so tests may run beside each other.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Bytes this thread has allocated minus those it has freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation of `bytes` on the current thread.
fn count(bytes: usize) {
    // A thread being torn down has no counts left to keep.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes as i64));
}

/// Count `bytes` freed on the current thread.
fn free(bytes: usize) {
    let _ = LIVE.try_with(|l| l.set(l.get() - bytes as i64));
}

/// `(allocations, bytes)` the current thread has made so far.
fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

/// Bytes the current thread holds (allocated and not yet freed).
fn live() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: `Counting` keeps only thread-local counters, which never
// allocate; every method forwards its arguments unchanged to the
// system allocator, so the caller's `GlobalAlloc` contract is the one
// `System` gets.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded from this method's caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded from this method's caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        free(layout.size());
        // SAFETY: forwarded from this method's caller; `ptr` came from
        // `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const COLD: &str = "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) \
                    WHERE a.country = c.country RETURN a, c";

/// COLD with its σ as a difference: the same rows, but no `x = y`
/// between two columns, so the planner keeps the join keyed on `b` alone
/// and the σ filters all of its rows.
const COLD_UNKEYED: &str = "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) \
                            WHERE a.country - c.country = 0 RETURN a, c";

/// `persons` people in 8 countries (`i mod 8`), each KNOWS the next 8:
/// out- and in-degree 8, so the two-hop join has 64 rows per person, and
/// `a → a + k → a + k + j` stays in the country for `k + j ∈ {8, 16}`:
/// 8 rows per person in the view.
fn graph(persons: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut tx = Transaction::new();
    let ids: Vec<_> = (0..persons)
        .map(|i| {
            let mut p = Properties::new();
            p.set(Symbol::intern("country"), Value::Int((i % 8) as i64));
            tx.create_vertex([Symbol::intern("Person")], p)
        })
        .collect();
    for i in 0..persons {
        for k in 1..=8 {
            let j = (i + k) % persons;
            tx.create_edge(ids[i], ids[j], Symbol::intern("KNOWS"), Properties::new());
        }
    }
    g.apply(&tx).unwrap();
    g
}

/// `(|KNOWS|, |⋈|, |result|, allocations of the registration)` of
/// COLD_UNKEYED.
fn register_cold(persons: usize) -> (u64, u64, u64, u64) {
    let g = graph(persons);
    let fra = compile_query(&parse_query(COLD_UNKEYED).unwrap())
        .unwrap()
        .fra;
    let mut net = DataflowNetwork::new();
    let before = counts().0;
    let sid = net.register("cold", &fra, &g);
    let allocations = counts().0 - before;
    let knows = g.edge_count() as u64;
    let result = net.view(sid).row_count() as u64;
    (knows, 8 * knows, result, allocations)
}

#[test]
fn cold_registration_allocates_with_input_and_output_not_with_the_join() {
    let (knows, join, result, small) = register_cold(600);
    assert!(join >= 8 * result, "|⋈| {join} vs |result| {result}");
    assert!(
        small < join / 2,
        "{small} allocations for a {join}-row join feeding {result} result rows"
    );

    // Ten times the graph at the same degree and result density: the
    // growth is paid per edge and per result row, not per join row.
    let (knows10, join10, result10, large) = register_cold(6_000);
    assert_eq!((knows10, result10), (10 * knows, 10 * result));
    let grown = large - small;
    let input_output = (knows10 - knows) + (result10 - result);
    assert!(
        grown <= 2 * input_output,
        "{grown} more allocations for {input_output} more edges and result rows"
    );
    assert!(
        grown < (join10 - join) / 2,
        "{grown} more allocations for {} more join rows",
        join10 - join
    );
}

/// COLD's ⋈ keys on `b` and, by value, on `a.country = c.country`. A
/// new `KNOWS` edge meets the 8 edges out of its target and the 8 into
/// its source, and of each 8 exactly one ends in the other end's
/// country: the ⋈ emits those 2 rows, where keyed on `b` alone it emitted
/// all 16 for the σ to drop 14.
#[test]
fn a_new_edge_makes_the_value_keyed_join_emit_only_what_its_sigma_keeps() {
    let mut g = graph(600);
    let fra = compile_query(&parse_query(COLD).unwrap()).unwrap().fra;
    let mut net = DataflowNetwork::new();
    let sid = net.register("cold", &fra, &g);
    let rows = net.view(sid).row_count();
    let mut ids: Vec<_> = g.vertex_ids().collect();
    ids.sort();
    let knows = Symbol::intern("KNOWS");
    let (_, ev) = g
        .add_edge(ids[0], ids[300], knows, Properties::new())
        .unwrap();
    let before = net.counters().join_tuples_emitted;
    net.on_transaction(&g, &[ev]);
    assert_eq!(net.counters().join_tuples_emitted - before, 2);
    assert_eq!(net.view(sid).row_count(), rows + 2);
}

/// `(|result|, bytes allocated by registering COLD's alpha-renamed twin)`
/// once COLD is registered on `graph(persons)`.
fn register_shared(persons: usize) -> (usize, u64) {
    let g = graph(persons);
    let compile = |q: &str| compile_query(&parse_query(q).unwrap()).unwrap().fra;
    let (cold, twin) = (
        compile(COLD),
        compile(
            "MATCH (x:Person)-[:KNOWS]->(y:Person)-[:KNOWS]->(z:Person) \
             WHERE x.country = z.country RETURN x, z",
        ),
    );
    let mut net = DataflowNetwork::new();
    net.register("cold", &cold, &g);
    let (nodes, before) = (net.node_count(), counts().1);
    let sid = net.register("twin", &twin, &g);
    let bytes = counts().1 - before;
    assert_eq!(net.node_count(), nodes, "the twin shares every node");
    (net.view(sid).row_count(), bytes)
}

/// A map copy is one allocation whatever its size, so bytes, not
/// allocations, are what would show a copy of the shared result bag.
#[test]
fn a_fully_shared_registration_allocates_the_same_bytes_at_ten_times_the_result() {
    let (result, bytes) = register_shared(600);
    let (result10, bytes10) = register_shared(6_000);
    assert_eq!(result10, 10 * result);
    assert_eq!(
        bytes10, bytes,
        "{bytes} bytes at {result} result rows, {bytes10} at {result10}"
    );
}

/// Live bytes a `count(*)` view over `n` `C` vertices adds to its
/// network: `(after registration, after 100 retags)`, each a label taken
/// off a vertex in one pass and put back in the next.
fn count_view_live_bytes(n: usize) -> (i64, i64) {
    let c = Symbol::intern("C");
    let mut g = PropertyGraph::new();
    let mut tx = Transaction::new();
    for _ in 0..n {
        tx.create_vertex([c], Properties::new());
    }
    g.apply(&tx).unwrap();
    let mut ids: Vec<_> = g.vertex_ids().collect();
    ids.sort();
    let fra = compile_query(&parse_query("MATCH (c:C) RETURN count(*) AS n").unwrap())
        .unwrap()
        .fra;
    let mut net = DataflowNetwork::new();
    let base = live();
    let sid = net.register("n", &fra, &g);
    let registered = live() - base;
    for i in 0..100 {
        let v = ids[i / 2];
        let mut tx = Transaction::new();
        match i % 2 {
            0 => tx.remove_label(v, c),
            _ => tx.add_label(v, c),
        };
        let events = g.apply(&tx).unwrap();
        net.on_transaction(&g, &events);
        let want = Value::Int((n - (i % 2 == 0) as usize) as i64);
        assert_eq!(net.view(sid).results()[0].0.get(0), &want);
    }
    (registered, live() - base)
}

/// What a registration keeps is O(result), not O(extent): over 1 000 and
/// 10 000 vertices the view holds the same bytes, after registration and
/// after churn, to within `SLACK` (a scan that kept an id → row map grew
/// by ≈ 80 bytes per vertex, ≈ 720 000 here).
#[test]
fn a_count_view_keeps_the_same_bytes_over_ten_times_the_vertices() {
    const SLACK: i64 = 256;
    let (registered, churned) = count_view_live_bytes(1_000);
    let (registered10, churned10) = count_view_live_bytes(10_000);
    assert!(
        (registered10 - registered).abs() < SLACK,
        "registration keeps {registered} bytes over 1 000 vertices, {registered10} over 10 000"
    );
    assert!(
        (churned10 - churned).abs() < SLACK,
        "after churn {churned} bytes over 1 000 vertices, {churned10} over 10 000"
    );
}
