//! One-shot memory follows what the plan has to hold — its build sides,
//! its groups and its result — not the intermediate rows between them.
//! This binary's allocator counts the live bytes of the thread that
//! evaluates, and their peak during one evaluation.
//!
//! The hub-motif graph has `2 × spokes + 1` edges and `spokes²` directed
//! 3-paths (`s1 → h1 → h2 → s2`), and no directed four-cycle. The
//! four-cycle plan as written joins every 3-path to its closing edge, so
//! the materialising reference holds all of them and grows about 4× when
//! `spokes` doubles; the push evaluator holds four edge indexes and grows
//! about 2×. A `count(*)` over the 3-paths is the same contrast with a
//! γ on top, and a γ over `n` rows in `g` groups holds O(g) however
//! large `n` is. A keyed two-hop expands from its anchor, so it holds
//! the same bytes whatever the size of the graph around it.
//!
//! The allocator also counts allocation calls, a host-independent
//! companion to the one-shot read's time: a filtered, grouped label read
//! makes as many at 10⁴ posts as at 10³ (neither a ©'s batch buffer nor
//! γ allocates per row or per batch), and a keyed read makes as many at
//! 10k vertices as at 1k.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pgq_algebra::fra::Fra;
use pgq_algebra::pipeline::compile_query;
use pgq_algebra::plan::{plan_with, PlanOptions, PlanStats, WcojMode};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_parser::parse_query;
use pgq_workloads::motifs::{generate_hub_motifs, queries, HubMotifParams};

struct Counting;

thread_local! {
    /// Bytes this thread holds.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most it held since the last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) this thread
    /// made.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn called() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: `Counting` holds no state besides thread-local counters
// (const-initialised `Cell`s without a destructor, so counting never
// allocates); every method forwards its arguments unchanged to the system
// allocator, so the caller's `GlobalAlloc` contract is the one `System`
// gets.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        called();
        grow(layout.size() as i64);
        // SAFETY: forwarded from this method's caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        called();
        grow(layout.size() as i64);
        // SAFETY: forwarded from this method's caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        called();
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded from this method's caller; `ptr` came from
        // `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The peak bytes `f` held above what was live when it started, result
/// included.
fn peak_of<T>(f: impl FnOnce() -> T) -> u64 {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get);
    drop(out);
    (peak - base) as u64
}

/// The allocation calls `f` made, its result's included.
fn calls_of<T>(f: impl FnOnce() -> T) -> u64 {
    let base = CALLS.with(Cell::get);
    let out = f();
    let calls = CALLS.with(Cell::get) - base;
    drop(out);
    calls
}

fn plan(query: &str) -> Fra {
    compile_query(&parse_query(query).unwrap()).unwrap().fra
}

/// Peak bytes of the push evaluator and of the reference consolidating
/// `fra` over `g`, after checking that they agree.
fn peaks(fra: &Fra, g: &PropertyGraph) -> (u64, u64) {
    assert_eq!(
        pgq_eval::evaluate_consolidated(fra, g),
        pgq_eval_reference::evaluate_consolidated(fra, g)
    );
    (
        peak_of(|| pgq_eval::evaluate_consolidated(fra, g)),
        peak_of(|| pgq_eval_reference::evaluate_consolidated(fra, g)),
    )
}

const PATHS3: &str = "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(d:N) RETURN count(*) AS paths";

#[test]
fn cyclic_reads_hold_edges_not_three_paths() {
    let graph = |spokes| {
        generate_hub_motifs(HubMotifParams {
            spokes,
            closers: 0,
            seed: 1,
        })
        .graph
    };
    let (small, large) = (graph(150), graph(300));
    for query in [queries::FOUR_CYCLES, PATHS3] {
        let fra = plan(query);
        let (push_small, ref_small) = peaks(&fra, &small);
        let (push_large, ref_large) = peaks(&fra, &large);
        let push = push_large as f64 / push_small as f64;
        let reference = ref_large as f64 / ref_small as f64;
        assert!(
            push <= 2.5,
            "{query}: push peak grew {push:.2}× ({push_small} → {push_large} bytes) for 2× the edges"
        );
        assert!(
            reference >= 3.5,
            "{query}: the reference holds every 3-path, so it should grow ≈ 4×, not {reference:.2}×"
        );
        assert!(
            push_large * 10 < ref_large,
            "{query}: push peak {push_large} bytes is not far below the reference's {ref_large}"
        );
    }
}

#[test]
fn a_group_by_holds_its_groups_not_its_rows() {
    const GROUPS: i64 = 8;
    let graph = |n: i64| {
        let mut g = PropertyGraph::new();
        for i in 0..n {
            let props =
                Properties::from_iter([("k", Value::Int(i % GROUPS)), ("x", Value::Int(i))]);
            g.add_vertex([Symbol::intern("N")], props);
        }
        g
    };
    let (small, large) = (graph(2_000), graph(8_000));
    let fra = plan(
        "MATCH (n:N) RETURN n.k AS k, count(*) AS c, sum(n.x) AS s, avg(n.x) AS a, \
         min(n.x) AS lo, max(n.x) AS hi",
    );
    let (push_small, ref_small) = peaks(&fra, &small);
    let (push_large, ref_large) = peaks(&fra, &large);
    assert!(
        push_large <= push_small + push_small / 4,
        "push γ peak went {push_small} → {push_large} bytes for 4× the rows in the same {GROUPS} groups"
    );
    assert!(
        push_large < 1_000 * GROUPS as u64,
        "push γ held {push_large} bytes for {GROUPS} groups"
    );
    assert!(
        ref_large >= 3 * ref_small,
        "the reference keeps a value per row: {ref_small} → {ref_large} bytes"
    );
}

/// `n` persons keyed `id = 0..n` and indexed on it, person `i` knowing
/// `i+1 .. i+4` (mod `n`).
fn ring(n: usize) -> PropertyGraph {
    let (person, knows) = (Symbol::intern("Person"), Symbol::intern("KNOWS"));
    let mut g = PropertyGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let props = Properties::from_iter([("id", Value::Int(i as i64))]);
            g.add_vertex([person], props).0
        })
        .collect();
    for i in 0..n {
        for d in 1..=4 {
            g.add_edge(ids[i], ids[(i + d) % n], knows, Properties::new())
                .unwrap();
        }
    }
    g.ensure_prop_index(person, Symbol::intern("id"));
    g
}

#[test]
fn a_keyed_two_hop_holds_the_same_bytes_at_1k_and_10k_vertices() {
    let compiled = plan(
        "MATCH (a:Person {id: 17})-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN count(*) AS reach",
    );
    // The one-shot path's plan over the ring's statistics: the key's σ
    // on the anchor, then one binary join per hop.
    let (small, large) = (ring(1_000), ring(10_000));
    let (person, knows) = (Symbol::intern("Person"), Symbol::intern("KNOWS"));
    let n = small.vertex_count() as u64;
    let stats = PlanStats {
        vertices: n,
        edges: 4 * n,
        label_counts: [(person, n)].into_iter().collect(),
        type_counts: [(knows, 4 * n)].into_iter().collect(),
        type_distinct_src: [(knows, n)].into_iter().collect(),
        type_distinct_dst: [(knows, n)].into_iter().collect(),
        vertex_prop_distinct: [(Symbol::intern("id"), n)].into_iter().collect(),
        ..PlanStats::default()
    };
    let options = PlanOptions {
        wcoj: WcojMode::Disabled,
    };
    let fra = plan_with(&compiled, &stats, &options).fra;
    assert_eq!(
        pgq_eval::explain(&fra, &small)
            .matches("← expand out KNOWS")
            .count(),
        2,
        "{}",
        fra.explain()
    );
    let (push_small, ref_small) = peaks(&fra, &small);
    let (push_large, ref_large) = peaks(&fra, &large);
    assert_eq!(
        push_small, push_large,
        "the keyed two-hop's peak moved with |KNOWS| ({push_small} → {push_large} bytes)"
    );
    assert!(
        ref_large > 5 * ref_small,
        "the reference builds both KNOWS extents: {ref_small} → {ref_large} bytes"
    );
}

/// `n` posts over five languages, lengths `0..500`.
fn posts(n: i64) -> PropertyGraph {
    const LANGS: [&str; 5] = ["en", "de", "fr", "hu", "es"];
    let mut g = PropertyGraph::new();
    for i in 0..n {
        let props = Properties::from_iter([
            ("lang", Value::str(LANGS[(i % 5) as usize])),
            ("len", Value::Int(i * 7 % 500)),
        ]);
        g.add_vertex([Symbol::intern("Post")], props);
    }
    g
}

#[test]
fn a_grouped_label_read_allocates_the_same_at_1k_and_10k_posts() {
    let fra = plan("MATCH (p:Post) WHERE p.len > 200 RETURN p.lang AS lang, count(*) AS posts");
    let (small, large) = (posts(1_000), posts(10_000));
    assert_eq!(
        pgq_eval::evaluate_consolidated(&fra, &large),
        pgq_eval_reference::evaluate_consolidated(&fra, &large)
    );
    let read = |g: &PropertyGraph| calls_of(|| pgq_eval::evaluate(&fra, g));
    let (at_small, at_large) = (read(&small), read(&large));
    assert_eq!(
        at_small, at_large,
        "the label read allocates per row or per batch: {at_small} calls at 10³ posts, \
         {at_large} at 10⁴"
    );
}

#[test]
fn a_keyed_read_allocates_the_same_at_1k_and_10k_vertices() {
    // The reading part of `MATCH (p:Person {id: 17}) SET p.score = 1`.
    let fra = plan("MATCH (p:Person {id: 17}) RETURN p");
    let (small, large) = (ring(1_000), ring(10_000));
    assert!(pgq_eval::explain(&fra, &small).contains("← seek Person.id"));
    let read = |g: &PropertyGraph| {
        calls_of(|| {
            let mut eval = pgq_eval::Evaluator::new(g);
            let bag = eval.run(&fra);
            assert_eq!((bag.len(), eval.rows_scanned), (1, 1));
            bag
        })
    };
    let (at_small, at_large) = (read(&small), read(&large));
    assert_eq!(
        at_small, at_large,
        "the keyed read's allocations moved with |V|: {at_small} calls at 1k, {at_large} at 10k"
    );
}
