//! The snapshot tick and the state dump, checked against things they do
//! not share code with:
//!
//! * the file a durable engine's tick writes against
//!   [`Snapshot::encode`] of the same graph and view catalog with **no**
//!   state sections (byte-for-byte), and against `decode`;
//! * every image a cadence fold writes — replaying closed logs onto the
//!   previous image's graph on another thread — against the image a
//!   twin engine's synchronous `snapshot()` of its live graph writes at
//!   the same commit (byte-for-byte), and an engine dropped right after
//!   a switch against the graph it held;
//! * every bag [`DataflowNetwork::dump_states`] returns against a
//!   `pgq_eval` recompute of that node's canonical sub-plan, and every
//!   root bag against the view's results — the first step of a state
//!   audit (operator state equals what its sub-plan implies). The engine
//!   no longer persists the dump; it stays audited because the
//!   benchmark's traced twin and the warm-restore API still call it;
//! * the dump's shape under sharing: one entry per live node, however
//!   many views reach it.
//!
//! All over seeded random graphs, random view subsets and a churn
//! script: the dump audits on the bare layers (`PropertyGraph` +
//! `DataflowNetwork`) so the dump can be taken at will, the tick on a
//! `GraphEngine` replaying the same script durably.

mod durability_script;

use std::io;
use std::sync::{Arc, Mutex};

use durability_script::{random_tx, XorShift};
use pgq_algebra::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_core::GraphEngine;
use pgq_durability::{MemDisk, MemVfs, Snapshot, SnapshotView, Vfs};
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::DataflowNetwork;
use pgq_parser::parse_query;

/// Every operator-state shape: scans, σ/π suffixes over a shared join,
/// `OR`, δ, γ, ⋈*, ω over paths, both edge directions, semi/antijoin,
/// a two-hop join whose inner join feeds another join, and a cyclic
/// pattern.
const POOL: &[&str] = &[
    "MATCH (p:Post) RETURN p",
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p, p.lang",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = 'de' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = 'fr' OR p.lang = 'en' RETURN c",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    "MATCH (a)-[:REPLY*1..3]->(b:Comm) RETURN a, b",
    "MATCH (p:Post) RETURN DISTINCT p.lang",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n",
    "MATCH (a:Comm)<-[:REPLY]-(b) RETURN a, b",
    "MATCH (a)-[:REPLY]-(b:Comm) RETURN a, b",
    "MATCH (p:Post) WHERE NOT exists((p)-[:REPLY]->(:Comm)) RETURN p",
    "MATCH (p:Post) WHERE exists((p)-[:REPLY]->(:Comm {lang: 'en'})) RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm)-[:REPLY]->(d:Comm) RETURN p, d",
    "MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c), (a)-[:REPLY]->(c) RETURN a, b, c",
];

const SEEDS: u64 = 12;
const STEPS: usize = 120;

/// One step of a churn script, as it was taken.
enum Step {
    /// Register `POOL[q]` as view `v{q}`.
    Register(usize),
    Apply(Transaction),
}

struct World {
    g: PropertyGraph,
    net: DataflowNetwork,
    script: Vec<Step>,
}

fn sorted(bag: &[(Tuple, i64)]) -> Vec<(Tuple, i64)> {
    let mut v = bag.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    v
}

/// A seeded random graph, a random subset of [`POOL`] registered at
/// random points of the script, and churn (adds, deletes, relabels,
/// cross edges) maintained through the network.
fn churned_world(seed: u64) -> World {
    let mut rng = XorShift::new(0x5EED_0000 + seed);
    let mut w = World {
        g: PropertyGraph::new(),
        net: DataflowNetwork::new(),
        script: Vec::new(),
    };
    let mut pending: Vec<usize> = (0..POOL.len()).filter(|_| rng.below(3) > 0).collect();
    for _ in 0..STEPS {
        if !pending.is_empty() && rng.below(8) == 0 {
            let q = pending.swap_remove(rng.below(pending.len()));
            let compiled = compile_query(&parse_query(POOL[q]).unwrap()).unwrap();
            w.net.register(format!("v{q}"), &compiled.fra, &w.g);
            w.script.push(Step::Register(q));
        }
        let tx = if rng.below(5) == 0 && w.g.vertex_count() >= 2 {
            // A cross edge between two existing vertices: reply chains
            // and the occasional cycle, which tree-shaped adds never make.
            let mut ids: Vec<_> = w.g.vertex_ids().collect();
            ids.sort_unstable();
            let mut tx = Transaction::new();
            tx.create_edge(
                ids[rng.below(ids.len())],
                ids[rng.below(ids.len())],
                Symbol::intern("REPLY"),
                Properties::new(),
            );
            tx
        } else {
            random_tx(&mut rng, &w.g)
        };
        let events = w.g.apply(&tx).unwrap();
        w.net.on_transaction(&w.g, &events);
        w.script.push(Step::Apply(tx));
    }
    w
}

#[test]
fn engine_tick_writes_graph_and_catalog_and_nothing_else() {
    for seed in 0..SEEDS {
        let w = churned_world(seed);
        let disk = MemDisk::new();
        let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
        // What the file must hold besides the graph: one catalog row per
        // view, slots in registration order, default options.
        let mut catalog = Vec::new();
        for step in &w.script {
            match step {
                Step::Register(q) => {
                    let name = format!("v{q}");
                    engine.register_view(&name, POOL[*q]).unwrap();
                    catalog.push(SnapshotView {
                        slot: catalog.len() as u32,
                        name,
                        query: POOL[*q].to_string(),
                        schema_mode: 0,
                        plan: true,
                        wcoj_mode: 1,
                        wcoj_sorted: None,
                    });
                }
                Step::Apply(tx) => {
                    engine.apply(tx).unwrap();
                }
            }
        }
        assert_eq!(
            durability_script::graph_identity(engine.graph()),
            durability_script::graph_identity(&w.g),
            "seed {seed}: the engine replayed a different graph"
        );
        engine.snapshot().unwrap();

        let written = durability_script::newest_snapshot_bytes(&disk);
        assert_eq!(
            written.len() as u64,
            engine.durability_health().unwrap().last_snapshot_bytes
        );

        // A compacting tick anchors a fresh generation: nothing subsumed.
        let mut owned = Snapshot::capture_graph(&w.g);
        owned.views = catalog;
        assert!(owned.states.is_empty());
        assert_eq!(written, owned.encode(), "seed {seed}: tick bytes");

        let back = Snapshot::decode(&written).unwrap();
        assert_eq!(back.encode(), written, "seed {seed}: decode → encode");
        assert_eq!(back.wal_records, 0);
        assert_eq!(back.views, owned.views);
        assert!(back.states.is_empty());
        assert_eq!(
            durability_script::graph_identity(&back.restore_graph().unwrap()),
            durability_script::graph_identity(&w.g),
            "seed {seed}: graph section"
        );
        assert_eq!(
            back.restore_graph().unwrap().id_watermarks(),
            w.g.id_watermarks()
        );
    }
}

/// A disk that keeps a copy of every image written to it, in order.
struct Recorder {
    disk: MemVfs,
    images: Mutex<Vec<(String, Vec<u8>)>>,
}

impl Recorder {
    fn open(every: u64) -> (GraphEngine, Arc<Recorder>) {
        let rec = Arc::new(Recorder {
            disk: MemDisk::new().vfs(),
            images: Mutex::new(Vec::new()),
        });
        let mut engine = GraphEngine::open_durable_with(rec.clone()).unwrap();
        engine.set_snapshot_every(every);
        (engine, rec)
    }
}

impl Vfs for Recorder {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.disk.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.disk.append(name, bytes)
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if name.starts_with("snap.") {
            let mut images = self.images.lock().expect("no recorder panics");
            images.push((name.to_string(), bytes.to_vec()));
        }
        self.disk.write_atomic(name, bytes)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.disk.remove(name)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.disk.sync(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.disk.list()
    }
}

#[test]
fn a_cadence_fold_writes_the_image_a_synchronous_snapshot_writes() {
    // Folds every 7 commits, each from the previous fold's graph or from
    // a registration's image; the twin instead cuts a synchronous
    // snapshot of its live graph at the same commits. Both number their
    // generations alike, so image for image the files must agree.
    const EVERY: u64 = 7;
    let mut folds = 0;
    for seed in 0..SEEDS {
        let w = churned_world(seed);
        let (mut folding, folded) = Recorder::open(EVERY);
        let (mut twin, snapped) = Recorder::open(0);
        for step in &w.script {
            match step {
                Step::Register(q) => {
                    folding.register_view(&format!("v{q}"), POOL[*q]).unwrap();
                    twin.register_view(&format!("v{q}"), POOL[*q]).unwrap();
                }
                Step::Apply(tx) => {
                    let generation = |e: &GraphEngine| e.durability_health().unwrap().generation;
                    let before = generation(&folding);
                    folding.apply(tx).unwrap();
                    twin.apply(tx).unwrap();
                    if generation(&folding) != before {
                        twin.snapshot().unwrap();
                        folds += 1;
                    }
                }
            }
        }
        let health = folding.durability_health().unwrap();
        assert_eq!(
            health.fold_failures, 0,
            "seed {seed}: {:?}",
            health.last_error
        );
        // Dropping joins the last fold.
        drop((folding, twin));
        let folded = folded.images.lock().unwrap();
        let snapped = snapped.images.lock().unwrap();
        assert_eq!(folded.len(), snapped.len(), "seed {seed}: images written");
        for ((name, bytes), (twin_name, twin_bytes)) in folded.iter().zip(snapped.iter()) {
            assert_eq!(name, twin_name, "seed {seed}");
            assert!(
                bytes == twin_bytes,
                "seed {seed}: {name} differs from the twin's"
            );
        }
    }
    assert!(folds >= SEEDS as usize * 10, "only {folds} folds");
}

#[test]
fn an_engine_dropped_right_after_a_switch_reopens_pristine() {
    for seed in 0..SEEDS {
        let w = churned_world(seed);
        let disk = MemDisk::new();
        let vfs: Arc<dyn Vfs> = Arc::new(disk.vfs());
        let mut engine = GraphEngine::open_durable_with(Arc::clone(&vfs)).unwrap();
        engine.set_snapshot_every(5);
        for step in &w.script {
            match step {
                Step::Register(q) => {
                    engine.register_view(&format!("v{q}"), POOL[*q]).unwrap();
                }
                Step::Apply(tx) => {
                    engine.apply(tx).unwrap();
                }
            }
        }
        // End on a switch: commit until one moves the generation, and
        // drop the engine while its fold may still be running.
        let mut rng = XorShift::new(0xD209 + seed);
        let mut shadow = w.g;
        let health = loop {
            let before = engine.durability_health().unwrap().generation;
            let tx = random_tx(&mut rng, engine.graph());
            engine.apply(&tx).unwrap();
            shadow.apply(&tx).unwrap();
            let health = engine.durability_health().unwrap();
            if health.generation != before {
                break health;
            }
        };
        assert!(health.fold_in_flight, "seed {seed}");
        assert_eq!(
            health.wal_records, 0,
            "seed {seed}: the switch left a fresh log"
        );
        drop(engine);
        // The drop joined the fold: no thread holds the disk any more.
        assert_eq!(
            Arc::strong_count(&vfs),
            1,
            "seed {seed}: a fold outlived its engine"
        );

        let reopened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
        assert!(
            reopened.recovery_report().unwrap().is_pristine(),
            "seed {seed}"
        );
        assert_eq!(
            durability_script::graph_identity(reopened.graph()),
            durability_script::graph_identity(&shadow),
            "seed {seed}"
        );
        assert_eq!(shadow.id_watermarks(), reopened.graph().id_watermarks());
        // The fold landed at the drop: recovery starts from its image.
        let reopened_health = reopened.durability_health().unwrap();
        assert_eq!(reopened_health.base_generation, Some(health.generation));
        assert_eq!(reopened_health.generation, health.generation);
    }
}

#[test]
fn dumped_bags_equal_recompute_of_each_subplan() {
    let mut audited = 0usize;
    for seed in 0..SEEDS {
        let w = churned_world(seed);
        let states = w.net.dump_states();
        assert_eq!(
            states.len(),
            w.net.node_count(),
            "seed {seed}: one entry per live node"
        );
        for (fp, plan, sinks) in w.net.node_plans() {
            let bag = states
                .lookup(fp, plan.snapshot_check().0)
                .unwrap_or_else(|| panic!("seed {seed}: no entry for\n{plan:#?}"));
            assert!(
                bag.iter().all(|(_, m)| *m != 0),
                "seed {seed}: zero multiplicity in a dumped bag"
            );
            assert_eq!(
                sorted(bag),
                sorted(&pgq_eval::evaluate_consolidated(plan, &w.g)),
                "seed {seed}: dumped bag differs from recompute of\n{plan:#?}"
            );
            for &sid in sinks {
                assert_eq!(
                    sorted(bag),
                    sorted(&w.net.view(sid).results()),
                    "seed {seed}: root bag differs from view `{}`",
                    w.net.view(sid).name()
                );
            }
            audited += 1;
        }
    }
    assert!(audited > 100, "only {audited} node bags audited");
}

#[test]
fn shared_subplan_appears_once_in_the_dump() {
    // Predicates over both join sides stay above the join (one-sided
    // ones are planned into its inputs), in languages no pool view
    // filters on: each member is a new view over the same join.
    const FAMILY: &[&str] = &["hu", "nl", "es", "it", "pt"];
    let mut w = churned_world(1);
    for lang in FAMILY {
        let q = format!(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = '{lang}' OR c.lang = '{lang}' RETURN p, c"
        );
        let compiled = compile_query(&parse_query(&q).unwrap()).unwrap();
        w.net.register(format!("m_{lang}"), &compiled.fra, &w.g);
    }
    // The stateful prefix under the whole family is one node (the edge
    // scan its vertex scans folded into) …
    let shared: Vec<u64> = w
        .net
        .node_summaries()
        .iter()
        .zip(w.net.node_plans())
        .filter(|(n, _)| !n.label.starts_with(['σ', 'π', 'ω']))
        .filter(|(n, _)| n.consumers >= FAMILY.len())
        .map(|(_, (fp, _, _))| fp)
        .collect();
    assert!(!shared.is_empty(), "the family shares no stateful node");
    // … and the dump holds it once: one entry per live node, not one
    // per path from a view down to it.
    let states = w.net.dump_states();
    assert_eq!(states.len(), w.net.node_count());
    for fp in shared {
        assert_eq!(states.iter().filter(|(f, _, _)| *f == fp).count(), 1);
    }
}
