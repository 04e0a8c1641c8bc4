//! The snapshot is an image of what cannot be recomputed — graph, id
//! watermarks, view catalog — and recovery rebuilds every operator
//! memory by registering each view once. Checked from the outside:
//!
//! * the tick is O(graph): its size is the graph's plus the catalog's,
//!   whatever the views hold in memory;
//! * images written before snapshots were graph-only (state sections
//!   filled from `dump_states`) still open, their state sections are
//!   ignored — a wrong bag under a valid checksum cannot reach a view —
//!   and the next tick writes none;
//! * the cadence survives restarts: a process restarted more often than
//!   `PGQ_SNAPSHOT_EVERY` still snapshots, and the first tick after a
//!   recovery is sized from the snapshot recovery loaded.

mod durability_script;

use std::sync::Arc;

use durability_script::{newest_snapshot_bytes, random_tx, XorShift, VIEWS};
use pgq_algebra::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_core::GraphEngine;
use pgq_durability::{MemDisk, Snapshot, SnapshotView};
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::{NodeRef, Transaction};
use pgq_ivm::DataflowNetwork;
use pgq_parser::parse_query;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn open(disk: &MemDisk) -> GraphEngine {
    GraphEngine::open_durable_with(Arc::new(disk.vfs())).expect("opens")
}

/// The newest snapshot on `disk`, decoded.
fn newest_snapshot(disk: &MemDisk) -> Snapshot {
    Snapshot::decode(&newest_snapshot_bytes(disk)).expect("decodes")
}

fn assert_views_equal_recompute(engine: &GraphEngine, views: &[(&str, &str)], what: &str) {
    for (name, q) in views {
        let id = engine
            .view_by_name(name)
            .unwrap_or_else(|| panic!("{what}: view {name} missing"));
        let plan = compile_query(&parse_query(q).unwrap()).unwrap();
        assert_eq!(
            engine.view(id).unwrap().results(),
            pgq_eval::evaluate_consolidated(&plan.fra, engine.graph()),
            "{what}: view {name} diverged from recompute"
        );
    }
}

// ---- the tick is O(graph) ---------------------------------------------------

const MOTIF_VIEWS: &[(&str, &str)] = &[
    (
        "triangle",
        "MATCH (a)-[:E]->(b)-[:E]->(c), (a)-[:E]->(c) RETURN a, b, c",
    ),
    ("two_hop", "MATCH (a)-[:E]->(b)-[:E]->(c) RETURN a, c"),
    (
        "threads",
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    ),
];

const RING: usize = 400;

/// A ring of `RING` vertices joined by `E` edges (every vertex has one
/// edge in and one out), plus seeded reply threads for the paper's view.
fn ring_and_threads() -> Transaction {
    let mut rng = XorShift::new(0x0617_A9E5);
    let langs = ["en", "de", "fr"];
    let mut lang = || Properties::from_iter([("lang", Value::str(langs[rng.below(langs.len())]))]);
    let mut tx = Transaction::new();
    let ring: Vec<NodeRef> = (0..RING)
        .map(|_| tx.create_vertex([s("N")], Properties::new()))
        .collect();
    for i in 0..RING {
        tx.create_edge(ring[i], ring[(i + 1) % RING], s("E"), Properties::new());
    }
    for _ in 0..20 {
        let mut tip = tx.create_vertex([s("Post")], lang());
        for _ in 0..4 {
            let c = tx.create_vertex([s("Comm")], lang());
            tx.create_edge(tip, c, s("REPLY"), Properties::new());
            tip = c;
        }
    }
    tx
}

#[test]
fn tick_size_is_graph_plus_catalog_whatever_the_views_hold() {
    // The same graph with and without views standing.
    let bare_disk = MemDisk::new();
    let mut bare = open(&bare_disk);
    bare.apply(&ring_and_threads()).unwrap();
    bare.snapshot().unwrap();
    let bare_bytes = bare.durability_health().unwrap().last_snapshot_bytes;

    let disk = MemDisk::new();
    let mut engine = open(&disk);
    engine.apply(&ring_and_threads()).unwrap();
    for (name, q) in MOTIF_VIEWS {
        engine.register_view(name, q).unwrap();
    }
    // Registration logs a catalog record and writes no image; this one
    // records the views.
    engine.snapshot().unwrap();
    // One catalog row: slot (u32), two length-prefixed strings, five
    // one-byte option fields.
    let catalog: usize = MOTIF_VIEWS
        .iter()
        .map(|(name, q)| 4 + (4 + name.len()) + (4 + q.len()) + 5)
        .sum();
    let bytes = |e: &GraphEngine| e.durability_health().unwrap().last_snapshot_bytes;
    assert_eq!(bytes(&engine), bare_bytes + catalog as u64);

    // Re-point ring edges at one hub. Vertex and edge counts stay fixed
    // (ids and lengths encode at fixed width), while the two-hop join
    // through the hub grows with in-degree × out-degree.
    let two_hop = engine.view_by_name("two_hop").unwrap();
    let memory_before = engine.view(two_hop).unwrap().memory_tuples();
    let mut ring: Vec<_> = engine
        .graph()
        .edges()
        .filter(|(_, e)| e.ty == s("E"))
        .map(|(id, e)| (id, e.src, e.dst))
        .collect();
    ring.sort_unstable();
    let hub = ring[0].1;
    for (i, (id, src, dst)) in ring.into_iter().enumerate().skip(2).take(360) {
        let mut tx = Transaction::new();
        tx.delete_edge(id);
        if i % 2 == 0 {
            tx.create_edge(src, hub, s("E"), Properties::new());
        } else {
            tx.create_edge(hub, dst, s("E"), Properties::new());
        }
        engine.apply(&tx).unwrap();
        if i % 50 == 0 {
            engine.snapshot().unwrap();
            assert_eq!(bytes(&engine), bare_bytes + catalog as u64, "step {i}");
        }
    }
    engine.snapshot().unwrap();
    let memory_after = engine.view(two_hop).unwrap().memory_tuples();
    assert!(
        memory_after >= 10 * memory_before,
        "join memories grew only {memory_before} → {memory_after}"
    );
    assert_eq!(bytes(&engine), bare_bytes + catalog as u64);
    assert!(newest_snapshot(&disk).states.is_empty());
    assert_views_equal_recompute(&engine, MOTIF_VIEWS, "after hub churn");

    // And the image it leaves recovers every view.
    drop(engine);
    assert_views_equal_recompute(&open(&disk), MOTIF_VIEWS, "recovered");
}

// ---- images from before snapshots were graph-only ---------------------------

/// An image written the old way: graph, catalog, and every live node's
/// bag from `dump_states`, as generation 1 with an empty log.
fn image_with_state_sections() -> Snapshot {
    let mut g = PropertyGraph::new();
    let mut rng = XorShift::new(0x01D_1A6E);
    for _ in 0..150 {
        let tx = random_tx(&mut rng, &g);
        g.apply(&tx).unwrap();
    }
    let mut net = DataflowNetwork::new();
    let mut snap = Snapshot::capture_graph(&g);
    for (slot, (name, q)) in VIEWS.iter().enumerate() {
        let compiled = compile_query(&parse_query(q).unwrap()).unwrap();
        net.register(*name, &compiled.fra, &g);
        snap.views.push(SnapshotView {
            slot: slot as u32,
            name: name.to_string(),
            query: q.to_string(),
            schema_mode: 0,
            plan: true,
            wcoj_mode: 1,
            wcoj_sorted: None,
        });
    }
    for (fp, check, bag) in net.dump_states().iter() {
        snap.states.push((fp, check, bag.to_vec()));
    }
    assert!(snap.states.len() >= VIEWS.len());
    snap
}

#[test]
fn image_with_state_sections_opens_and_the_next_tick_writes_none() {
    let disk = MemDisk::new();
    image_with_state_sections().write(&disk.vfs(), 1).unwrap();

    let mut engine = open(&disk);
    assert!(engine.recovery_report().unwrap().is_pristine());
    assert_views_equal_recompute(&engine, VIEWS, "old image");
    let mut rng = XorShift::new(0xC4_0A11);
    for step in 0..100 {
        let tx = random_tx(&mut rng, engine.graph());
        engine.apply(&tx).unwrap();
        if step % 10 == 9 {
            assert_views_equal_recompute(&engine, VIEWS, &format!("old image, step {step}"));
        }
    }
    engine.snapshot().unwrap();
    let written = newest_snapshot(&disk);
    assert_eq!(written.views.len(), VIEWS.len());
    assert!(written.states.is_empty(), "the engine wrote state sections");
}

#[test]
fn wrong_stored_bag_under_a_valid_checksum_cannot_reach_a_view() {
    let image = image_with_state_sections();
    for poisoned in 0..image.states.len() {
        let mut image = image.clone();
        // Right fingerprint and check hash, wrong contents; `write`
        // checksums whatever it is given.
        image.states[poisoned].2 = vec![(Tuple::new(vec![Value::Int(-1), Value::Int(-2)]), 3)];
        let disk = MemDisk::new();
        image.write(&disk.vfs(), 1).unwrap();
        assert_views_equal_recompute(
            &open(&disk),
            VIEWS,
            &format!("state section {poisoned} poisoned"),
        );
    }
}

// ---- the cadence survives restarts -----------------------------------------

#[test]
fn restart_loop_still_ticks() {
    const CADENCE: u64 = 1024;
    const COMMITS_PER_RUN: u64 = 300;
    let disk = MemDisk::new();
    let mut rng = XorShift::new(0x02E5_7A27);
    let mut registered = false;
    let mut snapshots = 0;
    for run in 0..8 {
        let mut engine = open(&disk);
        engine.set_snapshot_every(CADENCE);
        if !registered {
            for (name, q) in VIEWS {
                engine.register_view(name, q).unwrap();
            }
            registered = true;
        }
        let before = engine.durability_health().unwrap().snapshots_written;
        for _ in 0..COMMITS_PER_RUN {
            let tx = random_tx(&mut rng, engine.graph());
            engine.apply(&tx).unwrap();
        }
        let health = engine.durability_health().unwrap();
        assert!(
            health.wal_records < CADENCE + COMMITS_PER_RUN,
            "run {run}: the log holds {} records",
            health.wal_records
        );
        // A fold started in this run is counted when it is joined, at
        // the drop below.
        snapshots += health.snapshots_written + u64::from(health.fold_in_flight) - before;
    }
    // 2400 commits at a cadence of 1024: two switches, each a generation
    // and a folded image.
    assert_eq!(snapshots, 2);
    let engine = open(&disk);
    let health = engine.durability_health().unwrap();
    // Registrations are log records, not images: only the two switches
    // moved the generation.
    assert_eq!(health.generation, 2);
    // Each fold landed before its engine dropped: recovery starts from
    // the second folded image and replays only what followed it.
    assert_eq!(health.base_generation, Some(health.generation));
    assert!(engine.recovery_report().unwrap().is_pristine());
    assert_views_equal_recompute(&engine, VIEWS, "after the restart loop");
}

#[test]
fn first_tick_after_recovery_is_sized_from_the_loaded_snapshot() {
    let disk = MemDisk::new();
    let mut engine = open(&disk);
    assert_eq!(engine.durability_health().unwrap().last_snapshot_bytes, 0);
    for (name, q) in VIEWS {
        engine.register_view(name, q).unwrap();
    }
    let mut rng = XorShift::new(0x0005_12ED);
    for _ in 0..60 {
        let tx = random_tx(&mut rng, engine.graph());
        engine.apply(&tx).unwrap();
    }
    engine.snapshot().unwrap();
    let written = engine.durability_health().unwrap().last_snapshot_bytes;
    assert!(written > 0);
    // A tail past the snapshot does not change what recovery loaded.
    let tx = random_tx(&mut rng, engine.graph());
    engine.apply(&tx).unwrap();
    drop(engine);

    let health = open(&disk).durability_health().unwrap();
    assert_eq!(health.snapshots_written, 0);
    assert_eq!(health.last_snapshot_bytes, written);
}
