//! The background fold ([`pgq_durability::fold`]) checked against code it
//! does not share, over seeded random graphs and log chains — cold
//! starts, plain base images, and base images that subsume a prefix of
//! their own log (a skip count):
//!
//! 1. Its image is the same bytes whether it starts from the graph the
//!    caller kept or decodes `snap.<base>`, and the same bytes
//!    `SnapshotWriter` produces over the graph recovery rebuilds from the
//!    directory as it was before the fold.
//! 2. With the write fuse blown at every byte of its writes, recovery
//!    rebuilds the *same* graph — the fold moves where recovery starts,
//!    never what it reaches.
//! 3. With each of its operations failing, once per kind in
//!    [`Fault::ALL`], it reports a typed error and the directory still
//!    recovers the same graph; a panic on its thread joins as a typed
//!    error.

use std::io;
use std::sync::Arc;

use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_durability::fold::{fold, write_image, FoldJob, FoldThread};
use pgq_durability::snapshot::snap_file;
use pgq_durability::{recovery, wal};
use pgq_durability::{DurOp, Fault, MemDisk, Snapshot, SnapshotView, SnapshotWriter, Vfs};
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;

const SEEDS: u64 = 24;

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }
}

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn lang(rng: &mut XorShift) -> Properties {
    Properties::from_iter([("lang", Value::str(["en", "de", "fr"][rng.below(3)]))])
}

/// One random transaction against `g`: creates, edges between existing
/// vertices, property writes, deletes.
fn random_tx(rng: &mut XorShift, g: &PropertyGraph) -> Transaction {
    let mut vertices: Vec<_> = g.vertex_ids().collect();
    vertices.sort_unstable();
    let mut edges: Vec<_> = g.edge_ids().collect();
    edges.sort_unstable();
    let mut tx = Transaction::new();
    match rng.below(6) {
        2 if !vertices.is_empty() => {
            let (a, b) = (rng.below(vertices.len()), rng.below(vertices.len()));
            tx.create_edge(vertices[a], vertices[b], s("REPLY"), Properties::new());
        }
        3 if !vertices.is_empty() => {
            let v = vertices[rng.below(vertices.len())];
            tx.set_vertex_prop(v, s("lang"), Value::Int(rng.below(5) as i64));
        }
        4 if !edges.is_empty() => {
            tx.delete_edge(edges[rng.below(edges.len())]);
        }
        5 if !vertices.is_empty() => {
            tx.delete_vertex(vertices[rng.below(vertices.len())], true);
        }
        _ => {
            let label = ["Post", "Comm"][rng.below(2)];
            let props = lang(rng);
            tx.create_vertex([s(label)], props);
        }
    }
    tx
}

/// Ids, labels, properties, endpoints and id watermarks.
fn identity(g: &PropertyGraph) -> String {
    let snap = Snapshot::capture_graph(g);
    format!(
        "{:?} {:?} {:?}",
        snap.vertices,
        snap.edges,
        g.id_watermarks()
    )
}

fn catalog() -> Vec<SnapshotView> {
    vec![SnapshotView {
        slot: 0,
        name: "posts".into(),
        query: "MATCH (p:Post) RETURN p".into(),
        schema_mode: 0,
        plan: true,
        wcoj_mode: 1,
        wcoj_sorted: None,
    }]
}

/// A directory as a fold finds it: a base image (or none) and the
/// closed logs `wal.<base..=through>`.
struct Chain {
    disk: MemDisk,
    base: Option<u64>,
    through: u64,
    /// The graph `snap.<base>` holds; `None` when it subsumes records
    /// of its own log, which a kept graph never does.
    keepable: Option<PropertyGraph>,
    /// The graph at the end of the chain.
    want: PropertyGraph,
}

impl Chain {
    /// Seeded, so every call with one seed builds the same directory.
    fn new(seed: u64) -> Chain {
        let mut rng = XorShift(0x0F01_D5EE_D000 + seed * 0x9E37);
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        let mut g = PropertyGraph::new();
        fn step(g: &mut PropertyGraph, rng: &mut XorShift) -> Transaction {
            let tx = random_tx(rng, g);
            g.apply(&tx).expect("generated against this graph");
            tx
        }
        let (base, keepable) = match rng.below(3) {
            0 => (None, Some(PropertyGraph::new())),
            kind => {
                let base = 1 + rng.below(3) as u64;
                for _ in 0..rng.below(40) {
                    step(&mut g, &mut rng);
                }
                // Kind 2: an image from a build that pinned one generation
                // and counted the log records it subsumed.
                let skip = if kind == 2 { 1 + rng.below(4) } else { 0 };
                for _ in 0..skip {
                    wal::append_tx(&vfs, base, &step(&mut g, &mut rng)).unwrap();
                }
                let mut w = SnapshotWriter::new(0, skip as u64, &g);
                w.views(&catalog());
                w.states(std::iter::empty());
                vfs.write_atomic(&snap_file(base), &w.finish()).unwrap();
                (Some(base), (skip == 0).then(|| g.clone()))
            }
        };
        let first = base.unwrap_or(0);
        let through = first + rng.below(3) as u64;
        for generation in first..=through {
            for _ in 0..1 + rng.below(12) {
                wal::append_tx(&vfs, generation, &step(&mut g, &mut rng)).unwrap();
            }
        }
        Chain {
            disk,
            base,
            through,
            keepable,
            want: g,
        }
    }

    fn job(&self, keep: bool) -> FoldJob {
        FoldJob {
            base: self.base,
            through: self.through,
            kept: if keep { self.keepable.clone() } else { None },
            views: catalog(),
            capacity: 0,
        }
    }
}

/// The graph recovery rebuilds from `disk` (the engine's protocol minus
/// the views: plan, restore the base, replay the chain with the base's
/// skip count), and whether the plan had to repair anything.
fn recover(disk: &MemDisk) -> (PropertyGraph, bool) {
    let mut plan = recovery::plan(&disk.vfs()).expect("recovery plans");
    let (mut g, skip) = match plan.snapshot.take() {
        Some(snap) => (snap.restore_graph().unwrap(), snap.wal_records as usize),
        None => (PropertyGraph::new(), 0),
    };
    for (i, (_, log)) in plan.replay.iter().enumerate() {
        for tx in log.txs.iter().skip(if i == 0 { skip } else { 0 }) {
            g.apply(tx).expect("a recovered chain replays");
        }
    }
    (g, plan.report.is_pristine())
}

#[test]
fn image_is_the_same_from_kept_graph_from_disk_and_from_recovery() {
    let mut kept_runs = 0;
    for seed in 0..SEEDS {
        let (recovered, _) = recover(&Chain::new(seed).disk);
        let mut w = SnapshotWriter::new(0, 0, &recovered);
        w.views(&catalog());
        w.states(std::iter::empty());
        let want = w.finish();

        for keep in [false, true] {
            let c = Chain::new(seed);
            if keep && c.keepable.is_none() {
                continue;
            }
            kept_runs += usize::from(keep);
            let folded = fold(&c.disk.vfs(), c.job(keep)).expect("a clean chain folds");
            let image = snap_file(c.through + 1);
            let written = c
                .disk
                .vfs()
                .read(&image)
                .unwrap()
                .expect("the image landed");
            assert_eq!(written, want, "seed {seed} keep={keep}: image bytes");
            assert_eq!(folded.generation, c.through + 1);
            assert_eq!(folded.bytes, written.len() as u64);
            assert!(folded.cleanup.is_none());
            assert_eq!(identity(&folded.graph), identity(&c.want), "seed {seed}");
            // Nothing the image subsumes is left.
            assert_eq!(c.disk.file_names(), vec![image], "seed {seed}");
        }
    }
    assert!(
        kept_runs >= SEEDS as usize / 2,
        "only {kept_runs} kept-graph folds"
    );
}

#[test]
fn a_power_cut_at_any_byte_of_the_fold_recovers_the_same_graph() {
    for seed in 0..SEEDS / 3 {
        let want = identity(&Chain::new(seed).want);
        let scratch = MemDisk::new();
        let len = write_image(&scratch.vfs(), 1, &Chain::new(seed).want, &catalog(), 0).unwrap();
        for budget in 0..=len + 1 {
            let c = Chain::new(seed);
            // The fuse models a dying process: the fold sees no error.
            let _ = fold(&c.disk.vfs_with_fuse(budget), c.job(false));
            let (g, pristine) = recover(&c.disk);
            assert_eq!(identity(&g), want, "seed {seed} budget {budget}");
            assert!(pristine, "seed {seed} budget {budget}: recovery repaired");
        }
    }
}

#[test]
fn every_failed_fold_operation_is_typed_and_recovers_the_same_graph() {
    let mut runs = 0;
    for seed in 0..SEEDS {
        let want = identity(&Chain::new(seed).want);
        let ops = {
            let c = Chain::new(seed);
            let start = c.disk.ops_attempted();
            fold(&c.disk.vfs(), c.job(false)).unwrap();
            c.disk.ops_attempted() - start
        };
        for fault in Fault::ALL {
            for op in 0..ops {
                let c = Chain::new(seed);
                let vfs = c.disk.vfs_with_fault(c.disk.ops_attempted() + op, fault);
                let reported = match fold(&vfs, c.job(false)) {
                    Err(_) => true,
                    // A failed delete: the image landed, the stale file
                    // is the next recovery's to sweep.
                    Ok(folded) => folded.cleanup.is_some(),
                };
                assert!(
                    reported,
                    "seed {seed} op {op} {fault:?}: fault not reported"
                );
                assert_eq!(
                    identity(&recover(&c.disk).0),
                    want,
                    "seed {seed} op {op} {fault:?}"
                );
                runs += 1;
            }
        }
    }
    assert!(runs >= 5 * 2 * SEEDS as usize, "only {runs} fault points");
}

/// A disk whose every read panics.
struct OnFire;

impl Vfs for OnFire {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        panic!("reading {name}: disk on fire")
    }
    fn append(&self, _: &str, _: &[u8]) -> io::Result<()> {
        unreachable!("a fold never appends")
    }
    fn write_atomic(&self, _: &str, _: &[u8]) -> io::Result<()> {
        unreachable!("the fold panics first")
    }
    fn remove(&self, _: &str) -> io::Result<()> {
        unreachable!("the fold panics first")
    }
    fn sync(&self, _: &str) -> io::Result<()> {
        unreachable!("a fold never syncs a log")
    }
    fn list(&self) -> io::Result<Vec<String>> {
        unreachable!("a fold never lists")
    }
}

#[test]
fn a_panicking_fold_joins_as_a_typed_error() {
    let job = FoldJob {
        base: Some(1),
        through: 1,
        kept: None,
        views: catalog(),
        capacity: 0,
    };
    let err = FoldThread::spawn(Arc::new(OnFire), job)
        .join()
        .err()
        .expect("the fold failed");
    assert_eq!(err.op, DurOp::Fold);
    assert!(err.detail.contains("disk on fire"), "{err}");
}
