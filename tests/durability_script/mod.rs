//! Shared harness for the durability crash/fault sweeps: a seeded
//! random update script over three standing views (join, aggregate,
//! variable-length path), committed one transaction per `apply` call or
//! a few per `apply_batch` call, run against an in-memory disk in one of
//! two modes — strict (any engine error is a test bug) or faulty (typed
//! durability errors are expected and tolerated; fsync-always with a
//! one-commit flush window so every acknowledged call is durable when it
//! returns).

// Each test crate uses a different slice of this module.
#![allow(dead_code)]

use std::sync::Arc;

use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_core::{EngineError, GraphEngine};
use pgq_durability::snapshot::{parse_snap_name, snap_file};
use pgq_durability::{FsyncMode, MemDisk, MemVfs, Snapshot, Vfs};
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;

const LANGS: &[&str] = &["en", "de", "fr"];
pub const TXS_PER_SCRIPT: usize = 16;

/// The standing views every crash must preserve: a filtered join, an
/// aggregate, and a variable-length path (the three operator-state
/// shapes — join memories, group table, path store).
pub const VIEWS: &[(&str, &str)] = &[
    (
        "same_lang",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    ),
    (
        "by_lang",
        "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    ),
    (
        "threads",
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) RETURN p, t",
    ),
];

pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// One random single-op transaction against the current graph.
pub fn random_tx(rng: &mut XorShift, g: &PropertyGraph) -> Transaction {
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
    let mut tx = Transaction::new();
    match rng.below(6) {
        0 | 1 => {
            tx.create_vertex(
                [s("Post")],
                Properties::from_iter([("lang", Value::str(LANGS[rng.below(LANGS.len())]))]),
            );
        }
        2 if !vertices.is_empty() => {
            let p = vertices[rng.below(vertices.len())];
            let c = tx.create_vertex(
                [s("Comm")],
                Properties::from_iter([("lang", Value::str(LANGS[rng.below(LANGS.len())]))]),
            );
            tx.create_edge(p, c, s("REPLY"), Properties::new());
        }
        3 if !vertices.is_empty() => {
            tx.set_vertex_prop(
                vertices[rng.below(vertices.len())],
                s("lang"),
                Value::str(LANGS[rng.below(LANGS.len())]),
            );
        }
        4 if !edges.is_empty() => {
            tx.delete_edge(edges[rng.below(edges.len())]);
        }
        5 if !vertices.is_empty() => {
            tx.delete_vertex(vertices[rng.below(vertices.len())], true);
        }
        _ => {
            tx.create_vertex([s("Post")], Properties::new());
        }
    }
    tx
}

/// Content identity of a graph: the deterministic sorted dump (ids,
/// labels, properties, endpoints) rendered to one string.
pub fn graph_identity(g: &PropertyGraph) -> String {
    let snap = Snapshot::capture_graph(g);
    format!("{:?} {:?}", snap.vertices, snap.edges)
}

/// The bytes of the highest-generation snapshot file on `disk`.
pub fn newest_snapshot_bytes(disk: &MemDisk) -> Vec<u8> {
    let vfs = disk.vfs();
    let newest = vfs
        .list()
        .unwrap()
        .iter()
        .filter_map(|n| parse_snap_name(n))
        .max()
        .expect("a snapshot exists");
    vfs.read(&snap_file(newest)).unwrap().expect("listed")
}

/// How a script run treats the engine.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Crash model (byte fuse or no fault at all): the engine must
    /// never observe an error — any `Err` fails the test.
    Strict,
    /// Live-disk error model: typed durability errors are expected.
    /// Runs fsync-always with a one-commit flush window; failed
    /// registrations stop further registrations (so the surviving view
    /// set stays a registration prefix) and failed commit calls are
    /// counted in [`Run::rejected`].
    Faulty,
}

/// What a script run produced.
pub struct Run {
    /// Transactions the engine acknowledged, in commit order (a batch's
    /// kept members one by one).
    pub committed: Vec<Transaction>,
    /// Views successfully registered (a prefix of [`VIEWS`]).
    pub registered: usize,
    /// Commit calls (an `apply` or a whole `apply_batch`) the engine
    /// rejected with a typed durability error.
    pub rejected: usize,
    /// Was the engine in read-only degraded mode when the run ended?
    pub degraded: bool,
}

/// Run the seeded script against `vfs`. Panics on any engine error in
/// strict mode; tolerates typed durability errors in
/// [`RunMode::Faulty`].
pub fn run_script(vfs: MemVfs, seed: u64, threads: usize, mode: RunMode) -> Run {
    let mut engine = GraphEngine::open_durable_with(Arc::new(vfs))
        .unwrap_or_else(|e| panic!("seed={seed:#x}: open failed: {e}"));
    engine.set_threads(threads);
    engine.set_snapshot_every(5);
    if mode == RunMode::Faulty {
        engine.set_fsync(FsyncMode::Always);
        engine.set_flush_window(1);
    }
    let mut registered = 0;
    for (name, q) in VIEWS {
        match engine.register_view(name, q) {
            Ok(_) => registered += 1,
            Err(EngineError::Durability(_) | EngineError::ReadOnly(_))
                if mode == RunMode::Faulty =>
            {
                break;
            }
            Err(e) => panic!("seed={seed:#x}: register {name} failed: {e}"),
        }
    }
    let mut rng = XorShift::new(seed);
    let mut committed = Vec::with_capacity(TXS_PER_SCRIPT);
    let mut rejected = 0;
    while committed.len() + rejected < TXS_PER_SCRIPT {
        // One call in three is an `apply_batch` of two to four members,
        // each drawn against the graph its predecessors leave, so every
        // member applies.
        let width = match rng.below(3) {
            0 => 2 + rng.below(3),
            _ => 1,
        };
        let before = engine.graph().clone();
        let mut shadow = before.clone();
        let members: Vec<Transaction> = (0..width)
            .map(|_| {
                let tx = random_tx(&mut rng, &shadow);
                shadow.apply(&tx).expect("a drawn member applies");
                tx
            })
            .collect();
        let outcome = match members.as_slice() {
            [tx] => engine.apply(tx).map(drop),
            _ => engine.apply_batch(&members).map(drop),
        };
        match outcome {
            Ok(()) => committed.extend(members),
            Err(EngineError::Durability(_) | EngineError::ReadOnly(_))
                if mode == RunMode::Faulty =>
            {
                // The call kept a prefix of its members (none if its
                // sync failed): whatever the engine now holds.
                rejected += 1;
                committed.extend(kept_prefix(before, &members, engine.graph(), seed));
            }
            Err(e) => panic!(
                "seed={seed:#x} call {}: commit failed: {e}",
                committed.len()
            ),
        }
    }
    Run {
        committed,
        registered,
        rejected,
        degraded: engine.is_degraded(),
    }
}

/// The members of a failed call that `after` holds: the prefix that,
/// applied to `before`, gives `after`.
fn kept_prefix(
    mut before: PropertyGraph,
    members: &[Transaction],
    after: &PropertyGraph,
    seed: u64,
) -> Vec<Transaction> {
    let target = graph_identity(after);
    for (k, tx) in members.iter().enumerate() {
        if graph_identity(&before) == target {
            return members[..k].to_vec();
        }
        before.apply(tx).unwrap();
    }
    assert_eq!(
        graph_identity(&before),
        target,
        "seed={seed:#x}: a failed call left a graph no prefix of its members gives"
    );
    members.to_vec()
}
