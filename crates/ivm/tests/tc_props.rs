//! Model suite for the ⋈* operator: its *output* and its *state* are
//! audited against an independent recompute after every step of a
//! seeded random script.
//!
//! The script churns everything the operator listens to, several changes
//! per call: edges of a small multigraph (cycles, self-loops, parallel
//! edges, edges of a foreign type, edges entering and leaving a literal
//! property filter), left rows (duplicate sources, multiplicity 2, the
//! last row of a source, `Null` and non-node sources), destination labels
//! and pushed properties, and vertices (detached deletes). After every
//! call
//!
//! * the folded output equals the evaluator's edge-distinct DFS
//!   (`pgq_eval::enumerate_paths`) run from every left row over `g`, with
//!   the destination constraint applied by hand;
//! * `path_count()` equals the number of paths of length ≥ 1 that DFS
//!   finds from the *distinct sources of the left rows* — the operator
//!   keeps anchored paths only;
//!
//! and once the script has been undone (no edges, no left rows, starting
//! labels and properties) `memory_tuples()` is back at its baseline.

use std::collections::HashMap;

use pgq_algebra::fra::{PropPush, VarLenSpec};
use pgq_common::dir::Direction;
use pgq_common::ids::VertexId;
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_eval::enumerate_paths;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::delta::Delta;
use pgq_ivm::tc::VarLengthOp;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// SplitMix64: the whole suite is a function of its seeds.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

#[derive(Clone, Copy, Debug)]
struct Config {
    min: u32,
    max: Option<u32>,
    dir: Direction,
    dst_label: bool,
    dst_prop: bool,
    edge_filter: bool,
}

const fn cfg(min: u32, max: Option<u32>, dir: Direction) -> Config {
    Config {
        min,
        max,
        dir,
        dst_label: false,
        dst_prop: false,
        edge_filter: false,
    }
}

fn spec_of(c: &Config) -> VarLenSpec {
    VarLenSpec {
        types: vec![s("R")],
        dir: c.dir,
        dst_labels: if c.dst_label { vec![s("D")] } else { vec![] },
        dst_props: if c.dst_prop {
            vec![PropPush {
                prop: s("lang"),
                col: "c.lang".into(),
            }]
        } else {
            vec![]
        },
        edge_prop_filters: if c.edge_filter {
            vec![(s("w"), Value::Int(1))]
        } else {
            vec![]
        },
        min: c.min,
        max: c.max,
    }
}

const LANGS: [&str; 2] = ["en", "de"];
/// Left rows are `[tag, source]`: the source is not column 0, and two
/// rows may share it.
const SRC_COL: usize = 1;

struct Model {
    spec: VarLenSpec,
    g: PropertyGraph,
    /// Live vertices; the first `start.len()` are never deleted.
    pool: Vec<VertexId>,
    /// Starting (has label `D`, lang) of the permanent vertices.
    start: Vec<(bool, &'static str)>,
    left: HashMap<Tuple, i64>,
    op: VarLengthOp,
    folded: HashMap<Tuple, i64>,
    baseline: usize,
    rng: Rng,
}

fn fold(into: &mut HashMap<Tuple, i64>, d: &Delta) {
    for (t, m) in d.iter() {
        let e = into.entry(t.clone()).or_insert(0);
        *e += m;
        if *e == 0 {
            into.remove(t);
        }
    }
}

impl Model {
    fn new(c: &Config, seed: u64) -> Model {
        let mut rng = Rng(seed);
        let mut g = PropertyGraph::new();
        let start: Vec<(bool, &'static str)> = (0..6)
            .map(|_| (rng.below(3) > 0, rng.pick(&LANGS)))
            .collect();
        let pool = start
            .iter()
            .map(|&(d, lang)| {
                let labels = if d {
                    vec![s("N"), s("D")]
                } else {
                    vec![s("N")]
                };
                let props = Properties::from_iter([("lang", Value::str(lang))]);
                g.add_vertex(labels, props).0
            })
            .collect();
        let spec = spec_of(c);
        let mut op = VarLengthOp::new(2, SRC_COL, &spec);
        let init = op.initial(&g, Delta::new());
        assert!(init.is_empty());
        let baseline = op.memory_tuples();
        Model {
            spec,
            g,
            pool,
            start,
            left: HashMap::new(),
            op,
            folded: HashMap::new(),
            baseline,
            rng,
        }
    }

    /// Edges the pattern can traverse, capped so that unbounded configs
    /// stay enumerable on a six-vertex multigraph.
    fn edge_budget_left(&self) -> bool {
        let cap = if self.spec.max.is_none() { 7 } else { 11 };
        self.g.edges_with_type(s("R")).len() < cap
    }

    fn apply(&mut self, tx: &Transaction, events: &mut Vec<ChangeEvent>) {
        events.extend(self.g.apply(tx).expect("script transactions are valid"));
    }

    fn change_left(&mut self, row: Tuple, m: i64, delta: &mut Delta) {
        fold(&mut self.left, &[(row.clone(), m)].into_iter().collect());
        delta.push(row, m);
    }

    /// One random change to `g` and/or the left rows.
    fn mutate(&mut self, events: &mut Vec<ChangeEvent>, left: &mut Delta) {
        let mut tx = Transaction::new();
        match self.rng.below(13) {
            0..=2 if self.edge_budget_left() => {
                let (a, b) = (self.rng.pick(&self.pool), self.rng.pick(&self.pool));
                let ty = if self.rng.below(8) == 0 { "S" } else { "R" };
                let w = Value::Int(1 + self.rng.below(2) as i64);
                tx.create_edge(a, b, s(ty), Properties::from_iter([("w", w)]));
            }
            3 | 4 => {
                let mut edges: Vec<_> = self.g.edge_ids().collect();
                edges.sort_unstable();
                if edges.is_empty() {
                    return;
                }
                let e = self.rng.pick(&edges);
                if self.rng.below(3) == 0 {
                    let w = Value::Int(1 + self.rng.below(2) as i64);
                    tx.set_edge_prop(e, s("w"), w);
                } else {
                    tx.delete_edge(e);
                }
            }
            5..=7 => {
                let src = match self.rng.below(10) {
                    0 => Value::Null,
                    1 => Value::Int(7),
                    _ => Value::Node(self.rng.pick(&self.pool)),
                };
                let row = Tuple::new(vec![Value::Int(self.rng.below(2) as i64), src]);
                let m = 1 + self.rng.below(2) as i64;
                self.change_left(row, m, left);
            }
            8 => {
                let mut rows: Vec<_> = self.left.iter().map(|(t, m)| (t.clone(), *m)).collect();
                rows.sort_by(|a, b| a.0.total_cmp(&b.0));
                if rows.is_empty() {
                    return;
                }
                let (row, m) = rows.swap_remove(self.rng.below(rows.len()));
                let gone = if self.rng.below(2) == 0 { m } else { 1 };
                self.change_left(row, -gone, left);
            }
            9 => {
                let v = self.rng.pick(&self.pool);
                if self.g.vertex(v).expect("live").has_label(s("D")) {
                    tx.remove_label(v, s("D"));
                } else {
                    tx.add_label(v, s("D"));
                }
            }
            10 => {
                let v = self.rng.pick(&self.pool);
                tx.set_vertex_prop(v, s("lang"), Value::str(self.rng.pick(&LANGS)));
            }
            11 => {
                let props = Properties::from_iter([("lang", Value::str(self.rng.pick(&LANGS)))]);
                let labels = if self.rng.below(2) == 0 {
                    vec![s("N"), s("D")]
                } else {
                    vec![s("N")]
                };
                tx.create_vertex(labels, props);
            }
            _ => {
                // Delete a non-permanent vertex with its edges; like an
                // upstream scan would, retract its left rows with it.
                if self.pool.len() == self.start.len() {
                    return;
                }
                let i = self.start.len() + self.rng.below(self.pool.len() - self.start.len());
                let v = self.pool.swap_remove(i);
                tx.delete_vertex(v, true);
                let rows: Vec<_> = self
                    .left
                    .iter()
                    .filter(|(t, _)| t.get(SRC_COL) == &Value::Node(v))
                    .map(|(t, m)| (t.clone(), *m))
                    .collect();
                for (row, m) in rows {
                    self.change_left(row, -m, left);
                }
            }
        }
        let before = events.len();
        self.apply(&tx, events);
        for ev in &events[before..] {
            if let ChangeEvent::VertexAdded { id } = ev {
                self.pool.push(*id);
            }
        }
    }

    /// The view the operator maintains, recomputed from scratch.
    fn oracle(&self) -> HashMap<Tuple, i64> {
        let mut out = HashMap::new();
        for (row, m) in &self.left {
            let Some(src) = row.get(SRC_COL).as_node() else {
                continue;
            };
            for p in enumerate_paths(&self.g, src, &self.spec) {
                let dst = self.g.vertex(p.target()).expect("path over live vertices");
                if !self.spec.dst_labels.iter().all(|&l| dst.has_label(l)) {
                    continue;
                }
                let mut vals = row.values().to_vec();
                vals.push(Value::Node(p.target()));
                for push in &self.spec.dst_props {
                    vals.push(dst.props.get_or_null(push.prop));
                }
                vals.push(Value::path(p));
                *out.entry(Tuple::new(vals)).or_insert(0) += m;
            }
        }
        out
    }

    /// (distinct node sources of the left rows, paths of length ≥ 1 from
    /// them within the hop bound).
    fn anchored(&self) -> (usize, usize) {
        let mut sources: Vec<VertexId> = self
            .left
            .keys()
            .filter_map(|t| t.get(SRC_COL).as_node())
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let any_length = VarLenSpec {
            min: 1,
            ..self.spec.clone()
        };
        let paths = sources
            .iter()
            .map(|&v| enumerate_paths(&self.g, v, &any_length).len())
            .sum();
        (sources.len(), paths)
    }

    fn check(&self, what: &str) {
        assert_eq!(self.folded, self.oracle(), "output diverged after {what}");
        assert_eq!(
            (self.op.anchor_count(), self.op.path_count()),
            self.anchored(),
            "state is not the anchored path set after {what}"
        );
    }

    fn call(&mut self, events: &[ChangeEvent], left: Delta, what: &str) {
        let delta = self.op.on_events(&self.g, events, left);
        fold(&mut self.folded, &delta);
        self.check(what);
    }

    fn step(&mut self, i: usize) {
        let mut events = Vec::new();
        let mut left = Delta::new();
        for _ in 0..1 + self.rng.below(3) {
            self.mutate(&mut events, &mut left);
        }
        self.call(&events, left, &format!("step {i}: {events:?}"));
    }

    /// Undo the script: the inputs return to where `baseline` was taken.
    fn undo(&mut self) {
        let mut tx = Transaction::new();
        for e in self.g.edge_ids() {
            tx.delete_edge(e);
        }
        for &v in &self.pool[self.start.len()..] {
            tx.delete_vertex(v, false);
        }
        for (&v, &(d, lang)) in self.pool.iter().zip(&self.start) {
            if d {
                tx.add_label(v, s("D"));
            } else {
                tx.remove_label(v, s("D"));
            }
            tx.set_vertex_prop(v, s("lang"), Value::str(lang));
        }
        self.pool.truncate(self.start.len());
        let mut events = Vec::new();
        self.apply(&tx, &mut events);
        let left: Delta = self.left.drain().map(|(t, m)| (t, -m)).collect();
        self.call(&events, left, "undo");
        assert!(self.folded.is_empty());
        assert_eq!(
            self.op.memory_tuples(),
            self.baseline,
            "state leaked: {} anchors, {} paths, {} edges",
            self.op.anchor_count(),
            self.op.path_count(),
            self.op.edge_count()
        );
    }
}

fn run(c: Config, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut m = Model::new(&c, seed);
        for i in 0..40 {
            m.step(i);
        }
        // What a view registered now would be loaded with.
        let mut replayed = Delta::new();
        m.op.replay_into(Some(&m.g), &mut replayed);
        let mut bag = HashMap::new();
        fold(&mut bag, &replayed);
        assert_eq!(bag, m.folded, "replay diverged ({c:?}, seed {seed})");
        m.undo();
    }
}

use Direction::{Both, In, Out};

#[test]
fn unbounded_out() {
    run(cfg(1, None, Out), 0..12);
}

#[test]
fn bounded_out() {
    run(cfg(1, Some(3), Out), 0..12);
}

#[test]
fn min_two() {
    run(cfg(2, Some(4), Out), 0..12);
}

#[test]
fn zero_min() {
    run(cfg(0, Some(2), Out), 0..12);
    run(cfg(0, None, Out), 0..6);
    run(cfg(0, Some(0), Out), 0..4);
}

#[test]
fn reverse() {
    run(cfg(1, Some(3), In), 0..12);
}

#[test]
fn undirected() {
    run(cfg(1, Some(2), Both), 0..12);
    run(cfg(0, Some(3), Both), 0..8);
}

#[test]
fn destination_label_and_property() {
    let thread = Config {
        dst_label: true,
        dst_prop: true,
        ..cfg(1, None, Out)
    };
    run(thread, 0..12);
    run(
        Config {
            dst_label: true,
            ..cfg(0, Some(3), Both)
        },
        0..8,
    );
    run(
        Config {
            dst_prop: true,
            ..cfg(2, Some(3), In)
        },
        0..8,
    );
}

#[test]
fn edge_property_filter() {
    run(
        Config {
            edge_filter: true,
            dst_label: true,
            ..cfg(1, Some(4), Out)
        },
        0..12,
    );
}

/// A reply chain of depth *d* under one `Post` holds *d* paths — the
/// unanchored store this operator replaced held *d(d+1)/2* = 20 100.
#[test]
fn chain_state_is_linear_in_depth() {
    const DEPTH: usize = 200;
    let mut g = PropertyGraph::new();
    let post = g.add_vertex([s("Post")], Properties::new()).0;
    let mut last = post;
    for _ in 0..DEPTH {
        let c = g.add_vertex([s("Comm")], Properties::new()).0;
        g.add_edge(last, c, s("R"), Properties::new()).unwrap();
        last = c;
    }
    let spec = VarLenSpec {
        dst_labels: vec![s("Comm")],
        ..spec_of(&cfg(1, None, Out))
    };
    let mut op = VarLengthOp::new(1, 0, &spec);
    let left: Delta = [(Tuple::new(vec![Value::Node(post)]), 1)]
        .into_iter()
        .collect();
    let out = op.initial(&g, left);
    assert_eq!(out.len(), DEPTH);
    assert_eq!(op.path_count(), DEPTH);
    assert_eq!(op.anchor_count(), 1);
}
