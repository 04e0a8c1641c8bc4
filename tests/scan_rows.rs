//! The one © / ⇑ row rule (`pgq_graph::scan`), checked over random
//! multigraphs — self-loops, parallel edges, vertices with several
//! labels, properties absent or set to `null` — and random patterns over
//! `Out`, `In` and `Both`, with labels on either side and pushed
//! properties:
//!
//! 1. a pattern's enumeration is the reference evaluator's bag for the
//!    same `Fra` scan, and reads as many elements;
//! 2. it is the concatenation of the pattern's per-element `row_into`,
//!    and of its keyed reads: `rows_of` over every vertex, `rows_at` at
//!    either end of every vertex;
//! 3. after a random pass, the rows `row_into` reads through the pass's
//!    `BeforeImage` are the rows of a clone taken before the pass.
//!
//! The reference shares no scan code with the module, so a `Both`
//! self-loop read twice, a lost label test or columns in the wrong order
//! shows in (1); a per-element rule that drifts from the enumeration
//! shows in (2).

use pgq_algebra::fra::{Fra, PropPush};
use pgq_common::dir::Direction;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::order::cmp_rows;
use pgq_common::value::Value;
use pgq_eval_reference::Evaluator;
use pgq_graph::before::BeforeIndex;
use pgq_graph::props::Properties;
use pgq_graph::scan::{EdgePattern, End, VertexPattern};
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::{NodeRef, Transaction};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["A", "B", "C"];
const KEYS: [&str; 2] = ["x", "y"];
const TYPES: [&str; 2] = ["R", "S"];

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 33) as usize % n.max(1)
    }

    fn pick(&mut self, from: &[&str]) -> Symbol {
        sym(from[self.below(from.len())])
    }

    /// Each of `from` with even odds, in a random order.
    fn some(&mut self, from: &[&str]) -> Vec<Symbol> {
        let mut picked: Vec<Symbol> = from
            .iter()
            .filter(|_| self.below(2) == 0)
            .map(|s| sym(s))
            .collect();
        if picked.len() == 2 && self.below(2) == 0 {
            picked.swap(0, 1);
        }
        picked
    }

    /// `null` (which removes the key) or a small number or string.
    fn value(&mut self) -> Value {
        match self.below(4) {
            0 => Value::Null,
            1 => Value::Int(self.below(3) as i64),
            2 => Value::from(self.below(2) as f64),
            _ => Value::str(["en", "de"][self.below(2)]),
        }
    }

    fn props(&mut self) -> Properties {
        let mut p = Properties::new();
        for _ in 0..self.below(3) {
            p.set(self.pick(&KEYS), self.value());
        }
        p
    }

    fn dir(&mut self) -> Direction {
        [Direction::Out, Direction::In, Direction::Both][self.below(3)]
    }
}

/// Up to 7 vertices and 14 edges; a quarter of the edges are self-loops,
/// and so few vertices make parallel edges common.
fn random_graph(rng: &mut Rng) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let vs: Vec<VertexId> = (0..1 + rng.below(7))
        .map(|_| {
            let labels = rng.some(&LABELS);
            let props = rng.props();
            g.add_vertex(labels, props).0
        })
        .collect();
    for _ in 0..rng.below(15) {
        let a = vs[rng.below(vs.len())];
        let b = match rng.below(4) {
            0 => a,
            _ => vs[rng.below(vs.len())],
        };
        let (ty, props) = (rng.pick(&TYPES), rng.props());
        g.add_edge(a, b, ty, props).expect("both ends exist");
    }
    g
}

fn vertex_pattern(rng: &mut Rng) -> VertexPattern {
    VertexPattern {
        labels: rng.some(&LABELS),
        props: rng.some(&KEYS),
    }
}

/// An edge pattern; `filtered` adds a literal edge-property filter a
/// third of the time (the reference's ⇑ has none).
fn edge_pattern(rng: &mut Rng, filtered: bool) -> EdgePattern {
    let filters = match filtered && rng.below(3) == 0 {
        true => vec![(rng.pick(&KEYS), Value::Int(rng.below(3) as i64))],
        false => Vec::new(),
    };
    EdgePattern {
        types: rng.some(&TYPES),
        dir: rng.dir(),
        src_labels: rng.some(&LABELS),
        dst_labels: rng.some(&LABELS),
        src_props: rng.some(&KEYS),
        edge_props: rng.some(&KEYS),
        dst_props: rng.some(&KEYS),
        filters,
    }
}

fn pushed(var: &str, keys: &[Symbol]) -> Vec<PropPush> {
    keys.iter()
        .map(|&prop| PropPush {
            prop,
            col: format!("{var}.{prop}"),
        })
        .collect()
}

fn vertex_scan(p: &VertexPattern) -> Fra {
    Fra::ScanVertices {
        var: "v".into(),
        labels: p.labels.clone(),
        props: pushed("v", &p.props),
    }
}

fn edge_scan(p: &EdgePattern) -> Fra {
    Fra::ScanEdges {
        src: "s".into(),
        edge: "e".into(),
        dst: "d".into(),
        types: p.types.clone(),
        src_labels: p.src_labels.clone(),
        dst_labels: p.dst_labels.clone(),
        src_props: pushed("s", &p.src_props),
        edge_props: pushed("e", &p.edge_props),
        dst_props: pushed("d", &p.dst_props),
        dir: p.dir,
    }
}

/// Rows collected from an enumeration, with the count it returned.
fn collect(read: impl FnOnce(&mut dyn FnMut(&[Value])) -> u64) -> (Vec<Vec<Value>>, u64) {
    let mut rows = Vec::new();
    let n = read(&mut |row| rows.push(row.to_vec()));
    (rows, n)
}

/// `rows` as a bag: sorted.
fn bag(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| cmp_rows(a, b));
    rows
}

/// The reference evaluator's bag for `fra` over `g`, and the elements
/// it read.
fn reference(fra: &Fra, g: &PropertyGraph) -> (Vec<Vec<Value>>, u64) {
    let mut eval = Evaluator::new(g);
    let mut rows = Vec::new();
    for (t, m) in eval.run(fra) {
        assert!(m > 0, "a scan row has multiplicity 1");
        rows.extend(std::iter::repeat_n(t.to_vec(), m as usize));
    }
    (bag(rows), eval.rows_scanned)
}

/// Every vertex's `row_into` over `g`.
fn vertex_rows_by_element(p: &VertexPattern, g: &PropertyGraph) -> Vec<Vec<Value>> {
    let (mut rows, mut row) = (Vec::new(), Vec::new());
    for v in g.vertex_ids() {
        if p.row_into(g.vertex_view(v), &mut row) {
            rows.push(row.clone());
        }
    }
    rows
}

/// Every edge's `row_into` over `g`, in each of its orientations.
fn edge_rows_by_element(p: &EdgePattern, g: &PropertyGraph) -> Vec<Vec<Value>> {
    let (mut rows, mut row) = (Vec::new(), Vec::new());
    for e in g.edge_ids() {
        let edge = g.edge_view(e);
        let ends = edge
            .map(|x| (x.src(), x.dst()))
            .expect("a listed edge exists");
        for sd in p.orientations(ends) {
            if p.row_into(sd, edge, |v| g.vertex_view(v), &mut row) {
                rows.push(row.clone());
            }
        }
    }
    rows
}

/// Checks (1) and (2) for one pair of patterns over `g`.
fn check_graph(vp: &VertexPattern, ep: &EdgePattern, g: &PropertyGraph) -> TestCaseResult {
    // (1) The enumeration is the reference's bag, read from as many
    // elements.
    let (rows, read) = collect(|out| vp.rows(g, out));
    let unfiltered = EdgePattern {
        filters: Vec::new(),
        ..ep.clone()
    };
    prop_assert_eq!(
        (bag(rows.clone()), read),
        reference(&vertex_scan(vp), g),
        "{vp:?}"
    );
    prop_assert_eq!(read as usize, vp.extent(g));
    let (edge_rows, edge_read) = collect(|out| unfiltered.rows(g, out));
    prop_assert_eq!(
        (bag(edge_rows), edge_read),
        reference(&edge_scan(&unfiltered), g),
        "{unfiltered:?}"
    );
    prop_assert_eq!(edge_read as usize, unfiltered.extent(g));

    // (2) It is the concatenation of the per-element rule and of the
    // keyed reads.
    let rows = bag(rows);
    prop_assert_eq!(&bag(vertex_rows_by_element(vp, g)), &rows, "{vp:?}");
    let (of, of_read) = collect(|out| vp.rows_of(g, g.vertex_ids(), out));
    prop_assert_eq!(&bag(of), &rows);
    prop_assert_eq!(of_read as usize, g.vertex_count());
    let (edge_rows, _) = collect(|out| ep.rows(g, out));
    let edge_rows = bag(edge_rows);
    prop_assert_eq!(&bag(edge_rows_by_element(ep, g)), &edge_rows, "{ep:?}");
    for end in [End::Src, End::Dst] {
        let (keyed, _) = collect(|out| ep.rows_at(g, g.vertex_ids(), end, out));
        prop_assert_eq!(&bag(keyed), &edge_rows, "{ep:?} at {end:?}");
    }
    Ok(())
}

/// One random transaction of up to six operations on `g`'s elements and
/// the ones it creates.
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
    for _ in 0..1 + rng.below(6) {
        match rng.below(9) {
            0 => {
                let (labels, props) = (rng.some(&LABELS), rng.props());
                tx.create_vertex(labels, props);
                created += 1;
            }
            1 if !vs.is_empty() || created > 0 => {
                let a = vertex(rng, created);
                let b = match rng.below(3) {
                    0 => a,
                    _ => vertex(rng, created),
                };
                let (ty, props) = (rng.pick(&TYPES), rng.props());
                tx.create_edge(a, b, ty, props);
            }
            2 if !vs.is_empty() => {
                tx.delete_vertex(vs[rng.below(vs.len())], true);
            }
            3 if !es.is_empty() => {
                tx.delete_edge(es[rng.below(es.len())]);
            }
            4 if !vs.is_empty() || created > 0 => {
                let v = vertex(rng, created);
                let (k, x) = (rng.pick(&KEYS), rng.value());
                tx.set_vertex_prop(v, k, x);
            }
            5 if !es.is_empty() => {
                let (k, x) = (rng.pick(&KEYS), rng.value());
                tx.set_edge_prop(es[rng.below(es.len())], k, x);
            }
            6 if !vs.is_empty() || created > 0 => {
                let v = vertex(rng, created);
                tx.add_label(v, rng.pick(&LABELS));
            }
            7 if !vs.is_empty() || created > 0 => {
                let v = vertex(rng, created);
                tx.remove_label(v, rng.pick(&LABELS));
            }
            _ => {}
        }
    }
    tx
}

/// Check (3): a pass of one to three transactions over `g`, then every
/// element's rows through the pass's before-image against a clone taken
/// before it.
fn check_pass(
    vp: &VertexPattern,
    ep: &EdgePattern,
    g: &mut PropertyGraph,
    rng: &mut Rng,
) -> TestCaseResult {
    let before = g.clone();
    let mut events = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let tx = random_tx(g, rng);
        if let Ok(member) = g.apply(&tx) {
            events.extend(member);
        }
    }
    let mut index = BeforeIndex::new();
    let image = index.build(g, &events);
    let mut vertices: Vec<VertexId> = before.vertex_ids().chain(g.vertex_ids()).collect();
    let mut edges: Vec<EdgeId> = before.edge_ids().chain(g.edge_ids()).collect();
    vertices.sort_unstable();
    vertices.dedup();
    edges.sort_unstable();
    edges.dedup();

    let mut row = Vec::new();
    let mut imaged = Vec::new();
    for &v in &vertices {
        if vp.row_into(image.vertex(v), &mut row) {
            imaged.push(row.clone());
        }
    }
    let (want, _) = collect(|out| vp.rows(&before, out));
    prop_assert_eq!(bag(imaged), bag(want), "{vp:?} after {events:?}");

    let mut imaged = Vec::new();
    for &e in &edges {
        let Some(edge) = image.edge(e) else { continue };
        for sd in ep.orientations((edge.src(), edge.dst())) {
            if ep.row_into(sd, Some(edge), |v| image.vertex(v), &mut row) {
                imaged.push(row.clone());
            }
        }
    }
    let (want, _) = collect(|out| ep.rows(&before, out));
    prop_assert_eq!(bag(imaged), bag(want), "{ep:?} after {events:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    #[test]
    fn one_rule_reads_every_scan_row(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let mut g = random_graph(&mut rng);
        for _ in 0..4 {
            let vp = vertex_pattern(&mut rng);
            let ep = edge_pattern(&mut rng, true);
            check_graph(&vp, &ep, &g)?;
            check_pass(&vp, &ep, &mut g, &mut rng)?;
        }
    }
}

/// The rule's corners, pinned: an undirected self-loop is one row, read
/// once from either end; parallel edges are a row each; a property set
/// to `null` reads as absent.
#[test]
fn pinned_corners() {
    let (a, x) = (sym("A"), sym("x"));
    let mut g = PropertyGraph::new();
    let u = g.add_vertex([a], Properties::new()).0;
    let w = g
        .add_vertex([a], Properties::from_iter([("x", Value::Int(1))]))
        .0;
    g.add_edge(u, u, sym("R"), Properties::new()).unwrap();
    g.add_edge(u, w, sym("R"), Properties::new()).unwrap();
    g.add_edge(u, w, sym("R"), Properties::new()).unwrap();
    g.set_vertex_prop(w, x, Value::Null).unwrap();
    let both = EdgePattern {
        types: vec![sym("R")],
        dir: Direction::Both,
        dst_props: vec![x],
        ..EdgePattern::default()
    };
    let (rows, read) = collect(|out| both.rows(&g, out));
    assert_eq!((rows.len(), read), (1 + 2 * 2, 3));
    assert!(rows.iter().all(|r| r[3] == Value::Null));
    for end in [End::Src, End::Dst] {
        let (at_u, read) = collect(|out| both.rows_at(&g, [u].into_iter(), end, out));
        assert_eq!((at_u.len(), read), (3, 3), "{end:?}");
    }
}
