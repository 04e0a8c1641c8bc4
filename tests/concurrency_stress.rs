//! Seeded random-interleaving stress tier for propagation at every
//! width and transaction batching (CI's `concurrency-stress` job).
//!
//! Each iteration derives a seed, generates a random update script over
//! a branch forest (lang churn, leaf growth, edge/vertex deletion,
//! label toggles), and replays it on one engine per propagation width
//! (1, 2, 4, 8). After every transaction the wider engines must report
//! exactly what the width-1 run reports, element for element: view
//! contents, the subscriber callbacks in order (which views, and the
//! tuple order inside each delta), `changed_sinks()`, `node_summaries()`
//! and the work `counters()` — every node runs the same step on the same
//! inputs at every width. The width-1 run is checked against from-scratch
//! recomputation periodically and at the end. The same script then
//! replays through `apply_batch` and must land in the same state, each
//! view's subscribers hearing once, with the script's net change.
//!
//! `PGQ_STRESS_ITERS` scales the number of seeded scripts (default 4;
//! the CI job raises it). Every assertion message carries the seed, so
//! a CI failure is reproducible locally by pinning `PGQ_STRESS_SEED`.

use std::sync::{Arc, Mutex};

use pgq_algebra::pipeline::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_core::{GraphEngine, ViewDelta};
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_parser::parse_query;
use pgq_workloads::branches::{branch_forest, branch_query, BranchForest};

const WIDTHS: &[usize] = &[1, 2, 4, 8];
const LANGS: &[&str] = &["en", "de", "fr"];
const TXS_PER_SCRIPT: usize = 30;

/// xorshift64* — self-contained, deterministic, no dependencies.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Render one random single-op transaction against the current graph.
/// Single-op keeps every pick valid at apply time (no intra-transaction
/// conflicts), while `apply_batch` later runs the whole script as one
/// multi-op pass.
fn random_tx(rng: &mut XorShift, g: &PropertyGraph, forest: &BranchForest) -> Transaction {
    let vertices: Vec<_> = {
        let mut v: Vec<_> = g.vertex_ids().collect();
        v.sort_unstable();
        v
    };
    let edges: Vec<_> = {
        let mut e: Vec<_> = g.edge_ids().collect();
        e.sort_unstable();
        e
    };
    let lang = Symbol::intern("lang");
    let mut tx = Transaction::new();
    match rng.below(7) {
        // Flip a random vertex's lang — hits roots and descendants, the
        // widest churn when several branches flip in one script.
        0 | 1 if !vertices.is_empty() => {
            let v = vertices[rng.below(vertices.len())];
            tx.set_vertex_prop(v, lang, Value::str(LANGS[rng.below(LANGS.len())]));
        }
        // Flip every still-live branch root in one transaction (the
        // widest levels a pooled pass sees).
        2 => {
            let l = LANGS[rng.below(LANGS.len())];
            for b in &forest.branches {
                if g.vertex(b.root).is_some() {
                    tx.set_vertex_prop(b.root, lang, Value::str(l));
                }
            }
        }
        // Grow a leaf: new C<i> vertex replying to a random existing
        // vertex (cross-branch edges are allowed — extra stress).
        3 if !vertices.is_empty() => {
            let b = &forest.branches[rng.below(forest.branches.len())];
            let parent = vertices[rng.below(vertices.len())];
            let c = tx.create_vertex(
                [b.comm],
                Properties::from_iter([("lang", Value::str(LANGS[rng.below(LANGS.len())]))]),
            );
            tx.create_edge(parent, c, b.reply, Properties::new());
        }
        4 if !edges.is_empty() => {
            tx.delete_edge(edges[rng.below(edges.len())]);
        }
        5 if !vertices.is_empty() => {
            tx.delete_vertex(vertices[rng.below(vertices.len())], true);
        }
        // Toggle a branch's descendant label on a random vertex.
        6 if !vertices.is_empty() => {
            let b = &forest.branches[rng.below(forest.branches.len())];
            let v = vertices[rng.below(vertices.len())];
            let has = g.vertex(v).map(|d| d.has_label(b.comm)).unwrap_or(false);
            if has {
                tx.remove_label(v, b.comm);
            } else {
                tx.add_label(v, b.comm);
            }
        }
        _ => {}
    }
    tx
}

/// Log every view's subscriber callbacks, in delivery order.
fn subscribe_all(e: &mut GraphEngine) -> Arc<Mutex<Vec<ViewDelta>>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let ids: Vec<_> = e.views().map(|(id, _)| id).collect();
    for id in ids {
        let log = Arc::clone(&log);
        e.subscribe(id, move |d| log.lock().unwrap().push(d.clone()))
            .unwrap();
    }
    log
}

/// What the last transaction showed the outside, drained from `log`:
/// the callbacks, the changed sinks, every node's summary and the work
/// counters.
fn observe(
    e: &GraphEngine,
    log: &Mutex<Vec<ViewDelta>>,
) -> (
    Vec<ViewDelta>,
    Vec<pgq_ivm::SinkId>,
    Vec<pgq_ivm::NodeSummary>,
    pgq_ivm::Counters,
) {
    (
        std::mem::take(&mut *log.lock().unwrap()),
        e.network().changed_sinks().to_vec(),
        e.network().node_summaries(),
        e.network().counters(),
    )
}

type Rows = Vec<(pgq_common::tuple::Tuple, i64)>;

fn view_rows(e: &GraphEngine, name: &str) -> Rows {
    let id = e.view_by_name(name).expect("view registered");
    e.view(id).expect("view alive").results()
}

/// `(inserted, removed)` taking `from` to `to`, each sorted, with
/// positive multiplicities.
fn net_change(from: &Rows, to: &Rows) -> (Rows, Rows) {
    let mut m: std::collections::HashMap<_, i64> = Default::default();
    for (t, n) in to {
        *m.entry(t.clone()).or_default() += n;
    }
    for (t, n) in from {
        *m.entry(t.clone()).or_default() -= n;
    }
    let (mut ins, mut rem) = (Vec::new(), Vec::new());
    for (t, n) in m {
        if n > 0 {
            ins.push((t, n));
        } else if n < 0 {
            rem.push((t, -n));
        }
    }
    sort_rows(&mut ins);
    sort_rows(&mut rem);
    (ins, rem)
}

fn sort_rows(rows: &mut Rows) {
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
}

#[test]
fn seeded_interleavings_deterministic_across_widths() {
    let iters = env_usize("PGQ_STRESS_ITERS", 4);
    let base_seed = env_usize("PGQ_STRESS_SEED", 0xC0FFEE) as u64;
    for iter in 0..iters {
        let seed = base_seed
            .wrapping_add(iter as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = XorShift::new(seed);
        let forest = branch_forest(4, 2, 2);
        let mut template = GraphEngine::from_graph(forest.graph.clone());
        let mut compiled = Vec::new();
        for i in 0..forest.branches.len() {
            let q = branch_query(i);
            compiled.push(compile_query(&parse_query(&q).unwrap()).unwrap());
            template.register_view(&format!("b{i}"), &q).unwrap();
        }
        let mut engines: Vec<_> = WIDTHS
            .iter()
            .map(|&w| {
                let mut e = template.clone();
                e.set_threads(w);
                e
            })
            .collect();
        let logs: Vec<_> = engines.iter_mut().map(subscribe_all).collect();
        let mut shadow = forest.graph.clone();
        let mut txs = Vec::with_capacity(TXS_PER_SCRIPT);
        for t in 0..TXS_PER_SCRIPT {
            let tx = random_tx(&mut rng, &shadow, &forest);
            shadow
                .apply(&tx)
                .unwrap_or_else(|e| panic!("seed={seed:#x} tx {t}: shadow apply failed: {e:?}"));
            for engine in &mut engines {
                engine
                    .apply(&tx)
                    .unwrap_or_else(|e| panic!("seed={seed:#x} tx {t}: apply failed: {e:?}"));
            }
            let serial = observe(&engines[0], &logs[0]);
            for ((engine, log), &w) in engines.iter().zip(&logs).zip(WIDTHS).skip(1) {
                assert_eq!(
                    observe(engine, log),
                    serial,
                    "seed={seed:#x} tx {t}: width {w} showed different callbacks, changed \
                     sinks, node summaries or counters than serial"
                );
            }
            for (i, plan) in compiled.iter().enumerate() {
                let name = format!("b{i}");
                let serial = view_rows(&engines[0], &name);
                for (engine, &w) in engines.iter().zip(WIDTHS).skip(1) {
                    assert_eq!(
                        view_rows(engine, &name),
                        serial,
                        "seed={seed:#x} tx {t}: width {w} diverged from serial on {name}"
                    );
                }
                // The recompute oracle is quadratic-ish on deep paths —
                // sample it rather than paying it every transaction.
                if t % 5 == 0 || t + 1 == TXS_PER_SCRIPT {
                    assert_eq!(
                        serial,
                        pgq_eval::evaluate_consolidated(&plan.fra, engines[0].graph()),
                        "seed={seed:#x} tx {t}: serial diverged from recompute on {name}"
                    );
                }
            }
            txs.push(tx);
        }
        // The same script through `apply_batch` (on a width-4 engine, so
        // the batch's one pass fans its levels across the pool too) must
        // land in exactly the serial end state, and tell each view's
        // subscribers once, with the script's net change to that view.
        let mut batched = template.clone();
        batched.set_threads(4);
        let log = subscribe_all(&mut batched);
        let summary = batched
            .apply_batch(&txs)
            .unwrap_or_else(|e| panic!("seed={seed:#x}: apply_batch failed: {e:?}"));
        assert_eq!(summary.transactions, txs.len(), "seed={seed:#x}");
        let heard = std::mem::take(&mut *log.lock().unwrap());
        let mut notified = 0;
        for i in 0..forest.branches.len() {
            let name = format!("b{i}");
            let end = view_rows(&engines[0], &name);
            assert_eq!(
                view_rows(&batched, &name),
                end,
                "seed={seed:#x}: apply_batch end state diverged on {name}"
            );
            let net = net_change(&view_rows(&template, &name), &end);
            let calls: Vec<_> = heard.iter().filter(|d| d.view == name).collect();
            if net.0.is_empty() && net.1.is_empty() {
                assert!(
                    calls.is_empty(),
                    "seed={seed:#x}: {name} unchanged but notified"
                );
            } else {
                assert_eq!(calls.len(), 1, "seed={seed:#x}: {name} notified {calls:?}");
                let mut got = (calls[0].inserted.clone(), calls[0].removed.clone());
                sort_rows(&mut got.0);
                sort_rows(&mut got.1);
                assert_eq!(got, net, "seed={seed:#x}: {name}'s batch delta");
                notified += 1;
            }
        }
        assert_eq!(heard.len(), notified, "seed={seed:#x}");
        eprintln!(
            "stress iter {iter}: seed={seed:#x} ok ({} txs, {notified} views notified by the batch)",
            txs.len()
        );
    }
}
