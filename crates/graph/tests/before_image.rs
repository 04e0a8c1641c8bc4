//! The before-image oracle: for every element a pass touched, the
//! [`BeforeImage`] built from the pass's events over the post-state graph
//! reads exactly what a clone of the graph taken before the pass holds —
//! existence, every label, every property, endpoints and type.
//!
//! Passes are single transactions and concatenations of several, as
//! `apply_batch` hands them to the network, over random mixes of every
//! operation; the pinned cases below are the ones an undo can get wrong:
//! a property changed twice and then its vertex removed, a label toggled
//! twice, an element added and removed in one pass, an edge property
//! change, and a self-loop (which an undirected scan reads from both
//! ends).

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::before::{BeforeImage, BeforeIndex};
use pgq_graph::delta::ChangeEvent;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::{NodeRef, Transaction};

const LABELS: &[&str] = &["A", "B", "C"];
const KEYS: &[&str] = &["x", "y", "z"];
const TYPES: &[&str] = &["R", "S"];

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// Every touched vertex and edge of `events` (endpoints included) reads
/// in `image` as in `before`.
fn assert_image(before: &PropertyGraph, image: &BeforeImage<'_>, events: &[ChangeEvent]) {
    let mut vertices: Vec<VertexId> = Vec::new();
    let mut edges: Vec<EdgeId> = Vec::new();
    for ev in events {
        vertices.extend(ev.touched_vertex());
        edges.extend(ev.touched_edge());
        if let ChangeEvent::EdgeRemoved { data, .. } = ev {
            vertices.extend([data.src, data.dst]);
        }
    }
    for &e in &edges {
        if let Some(d) = image.graph().edge(e) {
            vertices.extend([d.src, d.dst]);
        }
    }
    for v in vertices {
        let (want, got) = (before.vertex(v), image.vertex(v));
        assert_eq!(got.is_some(), want.is_some(), "{v} existence: {events:?}");
        let (Some(want), Some(got)) = (want, got) else {
            continue;
        };
        for &l in LABELS {
            assert_eq!(
                got.has_label(sym(l)),
                want.has_label(sym(l)),
                "{v} label {l}: {events:?}"
            );
        }
        for &k in KEYS {
            assert_eq!(
                got.get(sym(k)),
                want.props.get(sym(k)),
                "{v}.{k}: {events:?}"
            );
            assert_eq!(got.get_or_null(sym(k)), want.props.get_or_null(sym(k)));
        }
    }
    for e in edges {
        let (want, got) = (before.edge(e), image.edge(e));
        assert_eq!(got.is_some(), want.is_some(), "{e} existence: {events:?}");
        let (Some(want), Some(got)) = (want, got) else {
            continue;
        };
        assert_eq!(
            (got.src(), got.dst(), got.ty()),
            (want.src, want.dst, want.ty),
            "{e} endpoints and type"
        );
        for &k in KEYS {
            assert_eq!(
                got.get(sym(k)),
                want.props.get(sym(k)),
                "{e}.{k}: {events:?}"
            );
        }
    }
}

/// Apply `txs` as one pass — each atomically, a failing one rolled back —
/// and check the pass's before-image against the graph before it.
fn pass(g: &mut PropertyGraph, index: &mut BeforeIndex, txs: &[Transaction]) -> usize {
    let before = g.clone();
    let mut events = Vec::new();
    for tx in txs {
        if let Ok(member) = g.apply(tx) {
            events.extend(member);
        }
    }
    assert_image(&before, &index.build(g, &events), &events);
    events.len()
}

struct Rng(u64);

impl Rng {
    /// A fixed seed, varied by `PROPTEST_SHIM_SEED` the way the property
    /// tests' generators are, so a seed sweep reaches these passes too.
    fn seeded() -> Rng {
        let base = 0x9E37_79B9_7F4A_7C15u64;
        let seed = std::env::var("PROPTEST_SHIM_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok());
        Rng(seed.map_or(base, |s| base ^ s.wrapping_mul(0x2545_F491_4F6C_DD1D)))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 33) as usize % n.max(1)
    }

    fn pick(&mut self, from: &[&str]) -> Symbol {
        sym(from[self.below(from.len())])
    }

    fn value(&mut self) -> Value {
        match self.below(4) {
            0 => Value::Null,
            1 => Value::Int(self.below(3) as i64),
            2 => Value::from(self.below(3) as f64),
            _ => Value::str(["en", "de", "a string longer than fourteen bytes"][self.below(3)]),
        }
    }

    fn props(&mut self) -> Properties {
        let mut p = Properties::new();
        for _ in 0..self.below(3) {
            p.set(self.pick(KEYS), self.value());
        }
        p
    }
}

/// One random transaction of up to eight operations on `g`'s elements
/// and the ones it creates; many change one element more than once.
fn random_tx(g: &PropertyGraph, rng: &mut Rng) -> Transaction {
    let vs: Vec<VertexId> = g.vertex_ids().collect();
    let es: Vec<EdgeId> = g.edge_ids().collect();
    let mut tx = Transaction::new();
    let mut created = 0;
    let vertex = |rng: &mut Rng, created: usize| -> NodeRef {
        match vs.is_empty() || (created > 0 && rng.below(3) == 0) {
            true if created > 0 => NodeRef::New(rng.below(created)),
            _ => NodeRef::Existing(vs[rng.below(vs.len())]),
        }
    };
    for _ in 0..1 + rng.below(8) {
        match rng.below(10) {
            0 => {
                let labels: Vec<Symbol> = (0..rng.below(3)).map(|_| rng.pick(LABELS)).collect();
                let props = rng.props();
                tx.create_vertex(labels, props);
                created += 1;
            }
            1 if !vs.is_empty() || created > 0 => {
                let (a, b) = (vertex(rng, created), vertex(rng, created));
                let b = if rng.below(4) == 0 { a } else { b };
                let (ty, props) = (rng.pick(TYPES), rng.props());
                tx.create_edge(a, b, ty, props);
            }
            2 if !vs.is_empty() => {
                tx.delete_vertex(vs[rng.below(vs.len())], true);
            }
            3 if !es.is_empty() => {
                tx.delete_edge(es[rng.below(es.len())]);
            }
            4 | 5 if !vs.is_empty() || created > 0 => {
                let v = vertex(rng, created);
                let (k, x) = (rng.pick(KEYS), rng.value());
                tx.set_vertex_prop(v, k, x);
            }
            6 if !es.is_empty() => {
                let (k, x) = (rng.pick(KEYS), rng.value());
                tx.set_edge_prop(es[rng.below(es.len())], k, x);
            }
            7 if !vs.is_empty() || created > 0 => {
                let v = vertex(rng, created);
                tx.add_label(v, rng.pick(LABELS));
            }
            8 if !vs.is_empty() || created > 0 => {
                let v = vertex(rng, created);
                tx.remove_label(v, rng.pick(LABELS));
            }
            _ => {}
        }
    }
    tx
}

#[test]
fn random_passes_read_the_graph_before_them() {
    let mut rng = Rng::seeded();
    let mut g = PropertyGraph::new();
    let mut index = BeforeIndex::new();
    let mut events = 0;
    for step in 0..600 {
        // Single transactions and concatenations of up to five, as
        // `apply_batch` hands them over; rebuild when the graph empties.
        let members = if step % 3 == 0 { 1 } else { 1 + rng.below(5) };
        let mut txs = Vec::new();
        for _ in 0..members {
            txs.push(random_tx(&g, &mut rng));
        }
        events += pass(&mut g, &mut index, &txs);
        if g.vertex_count() < 4 {
            let mut seed = Transaction::new();
            for _ in 0..6 {
                seed.create_vertex([rng.pick(LABELS)], rng.props());
            }
            pass(&mut g, &mut index, &[seed]);
        }
    }
    assert!(events > 3_000, "only {events} events checked");
}

#[test]
fn pinned_cases_read_the_graph_before_them() {
    let (a, b, x, y) = (sym("A"), sym("B"), sym("x"), sym("y"));
    let mut g = PropertyGraph::new();
    let mut index = BeforeIndex::new();
    let mut setup = Transaction::new();
    let u = setup.create_vertex([a], Properties::from_iter([("x", Value::Int(1))]));
    let w = setup.create_vertex([a, b], Properties::new());
    setup.create_edge(
        u,
        w,
        sym("R"),
        Properties::from_iter([("y", Value::Int(7))]),
    );
    setup.create_edge(w, w, sym("R"), Properties::new());
    g.apply(&setup).unwrap();
    let ids: Vec<VertexId> = {
        let mut ids: Vec<_> = g.vertex_ids().collect();
        ids.sort();
        ids
    };
    let (u, w) = (ids[0], ids[1]);
    let edge_from = |g: &PropertyGraph, v: VertexId, to: VertexId| {
        g.out_edges(v)
            .iter()
            .copied()
            .find(|&e| g.edge(e).unwrap().dst == to)
            .unwrap()
    };
    let (uw, ww) = (edge_from(&g, u, w), edge_from(&g, w, w));

    // A property changed twice, then the vertex removed (detaching uw):
    // its first `old` is the value before the pass.
    let mut tx = Transaction::new();
    tx.set_vertex_prop(u, x, Value::Int(2));
    tx.set_vertex_prop(u, x, Value::Int(3));
    tx.set_vertex_prop(u, y, Value::str("new"));
    tx.delete_vertex(u, true);
    assert_eq!(pass(&mut g, &mut index, &[tx]), 5);

    // A label toggled twice, each way, across two members of one pass.
    let mut off_on = Transaction::new();
    off_on.remove_label(w, a).add_label(w, a);
    let mut on_off = Transaction::new();
    on_off.add_label(w, sym("C")).remove_label(w, sym("C"));
    assert_eq!(pass(&mut g, &mut index, &[off_on, on_off]), 4);

    // A vertex and an edge added in one member and removed in the next
    // of the same pass, the vertex relabelled and changed in between.
    let (next_vertex, next_edge) = g.id_watermarks();
    let (n, ne) = (VertexId(next_vertex), EdgeId(next_edge));
    let mut add = Transaction::new();
    let new = add.create_vertex([b], Properties::new());
    add.create_edge(new, w, sym("S"), Properties::new());
    let mut remove = Transaction::new();
    remove.set_vertex_prop(n, x, Value::Int(9));
    remove.add_label(n, a);
    remove.set_edge_prop(ne, y, Value::Int(3));
    remove.delete_vertex(n, true);
    assert_eq!(pass(&mut g, &mut index, &[add, remove]), 7);
    assert!(g.vertex(n).is_none() && g.edge(ne).is_none());

    // An edge property changed twice and removed, on the self-loop,
    // whose one endpoint also changes.
    let mut tx = Transaction::new();
    tx.set_edge_prop(ww, y, Value::Int(1));
    tx.set_edge_prop(ww, y, Value::Null);
    tx.set_vertex_prop(w, x, Value::from(0.5));
    tx.remove_label(w, b);
    assert_eq!(pass(&mut g, &mut index, &[tx]), 4);
    let mut tx = Transaction::new();
    tx.set_edge_prop(ww, y, Value::Int(4));
    tx.delete_edge(ww);
    assert_eq!(pass(&mut g, &mut index, &[tx]), 2);
    assert!(g.edge(uw).is_none() && g.edge(ww).is_none());
}
