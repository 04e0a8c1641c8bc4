//! Seeded crash-point sweep for the durability subsystem (CI's
//! `durability-crash` job).
//!
//! Each iteration derives a seed, generates a random update script, and
//! first runs it durably against an unlimited in-memory disk to learn
//! the total number of bytes the run *attempts* to write (WAL appends,
//! snapshot renames, generation switchovers — everything). It then
//! re-runs the identical script against fresh disks whose write
//! **fuse** blows after `f` bytes — sweeping `f` across the full range,
//! so the simulated power cut lands at every phase of the run:
//! mid-snapshot, between WAL records, *inside* a WAL record (a torn
//! append), and — with compaction armed and a low snapshot cadence —
//! in the middle of a generation switchover (new snapshot durable but
//! old generation not yet deleted, or neither). The cadence's fold runs
//! on a thread of its own, so its image writes and the appends share
//! the fuse in whichever order they interleave; the assertions hold for
//! every order. Writes after the fuse blows are silently dropped,
//! exactly like a kernel that never flushed them.
//!
//! After each simulated crash the engine is recovered from the
//! surviving bytes and must satisfy:
//!
//! 1. **Prefix durability** — the recovered graph equals the state
//!    after some prefix of the committed transactions (never a torn
//!    half-transaction, never a reordering), no matter which
//!    generation recovery lands on.
//! 2. **View consistency** — every recovered view equals a from-scratch
//!    evaluation of its plan over the recovered graph, and the set of
//!    recovered views is a registration-order prefix.
//! 3. **Progress** — recovery itself never errors and never panics: a
//!    torn switchover leaves either generation recoverable, and stale
//!    files from the old generation are swept.
//!
//! A second sweep runs a script that registers and drops views between
//! the transactions, so catalog records share the log, the switches and
//! the folds with data records. A recovery must land on the graph *and*
//! the view catalog after one prefix of those records, and a view
//! dropped inside the replayed chain must never be built: the recovered
//! network's counters and size equal a fresh engine's that registers
//! only the surviving views.
//!
//! The propagation width comes from `PGQ_THREADS` (the CI job runs the
//! sweep at widths 1 and 4). `PGQ_STRESS_ITERS` scales the number of
//! seeded scripts; every assertion message carries the seed so failures
//! reproduce locally via `PGQ_STRESS_SEED`. The live-disk *error*
//! model (reported failures instead of silent crashes) is swept in
//! `durability_faults.rs`.

mod durability_script;

use std::sync::Arc;

use durability_script::{graph_identity, random_tx, run_script, RunMode, TXS_PER_SCRIPT, VIEWS};
use pgq_algebra::pipeline::compile_query;
use pgq_core::GraphEngine;
use pgq_durability::snapshot::snap_file;
use pgq_durability::MemVfs;
use pgq_durability::{wal, MemDisk, SnapshotView, SnapshotWriter, Vfs};
use pgq_graph::store::PropertyGraph;
use pgq_parser::parse_query;

use durability_script::{env_usize, XorShift};

#[test]
fn crash_at_swept_byte_fuses_recovers_a_transaction_prefix() {
    let iters = env_usize("PGQ_STRESS_ITERS", 2);
    let base_seed = env_usize("PGQ_STRESS_SEED", 0xD00D_FEED) as u64;
    let threads = env_usize("PGQ_THREADS", 1);
    let compiled: Vec<_> = VIEWS
        .iter()
        .map(|(_, q)| compile_query(&parse_query(q).unwrap()).unwrap())
        .collect();

    for iter in 0..iters {
        let seed = base_seed
            .wrapping_add(iter as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);

        // Reference run: learn the total attempted write volume and the
        // graph identity after every transaction prefix (the set of
        // states a crash may legally recover to). `bytes_attempted`
        // counts every byte the engine *tried* to write — including
        // snapshots whose generation was later compacted away — which
        // is exactly the fuse's index space.
        let ref_disk = MemDisk::new();
        let ref_run = run_script(ref_disk.vfs(), seed, threads, RunMode::Strict);
        let txs = ref_run.committed;
        let total = ref_disk.bytes_attempted();
        let mut legal = Vec::with_capacity(txs.len() + 1);
        let mut shadow = PropertyGraph::new();
        legal.push(graph_identity(&shadow));
        for tx in &txs {
            shadow.apply(tx).unwrap();
            legal.push(graph_identity(&shadow));
        }

        // Sweep the fuse across the write volume: a dense stride plus
        // the exact edges (0, 1, total-1, total — the all-dropped and
        // nothing-dropped crashes).
        let stride = (total / 64).max(1);
        let mut fuses: Vec<u64> = (0..=total).step_by(stride as usize).collect();
        for edge in [0, 1, total.saturating_sub(1), total] {
            if !fuses.contains(&edge) {
                fuses.push(edge);
            }
        }
        let mut rng = XorShift::new(seed ^ 0xFACE);
        for _ in 0..16 {
            let f = rng.next() % (total + 1);
            if !fuses.contains(&f) {
                fuses.push(f);
            }
        }

        for &fuse in &fuses {
            let disk = MemDisk::new();
            // The doomed run: identical script, writes cut at `fuse`
            // bytes. The engine itself never observes the cut.
            let _ = run_script(disk.vfs_with_fuse(fuse), seed, threads, RunMode::Strict);

            // Power comes back: recover from the surviving bytes.
            let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs()))
                .unwrap_or_else(|e| panic!("seed={seed:#x} fuse={fuse}: recovery failed: {e}"));

            // 1. Prefix durability.
            let identity = graph_identity(recovered.graph());
            let prefix = legal.iter().position(|l| *l == identity);
            assert!(
                prefix.is_some(),
                "seed={seed:#x} fuse={fuse}: recovered graph is not a transaction prefix \
                 ({} vertices, {} edges)",
                recovered.graph().vertex_count(),
                recovered.graph().edge_count(),
            );

            // 2. View consistency. Each registration appends its own
            //    catalog record to the log, in order, so a crash
            //    mid-registration durably keeps a *prefix* of the
            //    registered views — never a later view without an
            //    earlier one.
            let present: Vec<bool> = VIEWS
                .iter()
                .map(|(n, _)| recovered.view_by_name(n).is_some())
                .collect();
            let boundary = present.iter().filter(|p| **p).count();
            assert!(
                present.iter().take(boundary).all(|p| *p),
                "seed={seed:#x} fuse={fuse}: recovered views are not a registration prefix \
                 ({present:?})"
            );
            for ((name, _), plan) in VIEWS.iter().zip(&compiled) {
                let Some(id) = recovered.view_by_name(name) else {
                    continue;
                };
                assert_eq!(
                    recovered.view(id).unwrap().results(),
                    pgq_eval::evaluate_consolidated(&plan.fra, recovered.graph()),
                    "seed={seed:#x} fuse={fuse}: view {name} diverged from recompute"
                );
            }
        }
        eprintln!(
            "crash sweep iter {iter}: seed={seed:#x} ok ({} fuse points over {total} bytes, width {threads})",
            fuses.len()
        );
    }
}

#[test]
fn recovery_is_idempotent_and_resumable() {
    // Crash, recover, commit more, crash again, recover again — the
    // double-recovery path must replay only each tail once, across
    // generation switchovers.
    let seed = env_usize("PGQ_STRESS_SEED", 0xBEEF) as u64 | 1;
    let disk = MemDisk::new();
    let run = run_script(disk.vfs(), seed, 1, RunMode::Strict);

    let mut shadow = PropertyGraph::new();
    for tx in &run.committed {
        shadow.apply(tx).unwrap();
    }

    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert_eq!(
        graph_identity(engine.graph()),
        graph_identity(&shadow),
        "seed={seed:#x}: first recovery lost transactions"
    );
    let mut rng = XorShift::new(seed ^ 0x5EC0);
    for _ in 0..4 {
        let tx = durability_script::random_tx(&mut rng, engine.graph());
        engine.apply(&tx).unwrap();
        shadow.apply(&tx).unwrap();
    }
    drop(engine);

    let engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert_eq!(
        graph_identity(engine.graph()),
        graph_identity(&shadow),
        "seed={seed:#x}: second recovery diverged"
    );
    for (name, q) in VIEWS {
        let id = engine.view_by_name(name).unwrap();
        let plan = compile_query(&parse_query(q).unwrap()).unwrap();
        assert_eq!(
            engine.view(id).unwrap().results(),
            pgq_eval::evaluate_consolidated(&plan.fra, engine.graph()),
            "seed={seed:#x}: view {name} diverged after double recovery"
        );
    }
}

#[test]
fn pinned_generation_image_opens_and_moves_on() {
    // An image from a build that still had the pinned-generation write
    // mode: everything in generation 0, and a `snap.0` that subsumes a
    // *prefix* of `wal.0` (its `wal_records` skip count). No code
    // writes that shape any more, so it is built by hand. Recovery
    // must skip exactly the subsumed records, replay the rest, and the
    // next snapshot must leave generation 0 behind.
    const SUBSUMED: usize = 9;
    let mut rng = XorShift::new(0x00A1_1CE5);
    let disk = MemDisk::new();
    let vfs = disk.vfs();
    let mut shadow = PropertyGraph::new();
    for t in 0..TXS_PER_SCRIPT {
        if t == SUBSUMED {
            let views: Vec<SnapshotView> = (0u32..)
                .zip(VIEWS)
                .map(|(slot, (name, q))| SnapshotView {
                    slot,
                    name: name.to_string(),
                    query: q.to_string(),
                    schema_mode: 0,
                    plan: true,
                    wcoj_mode: 1,
                    wcoj_sorted: None,
                })
                .collect();
            let mut w = SnapshotWriter::new(0, SUBSUMED as u64, &shadow);
            w.views(&views);
            w.states(std::iter::empty());
            vfs.write_atomic(&snap_file(0), &w.finish()).unwrap();
        }
        let tx = random_tx(&mut rng, &shadow);
        shadow.apply(&tx).unwrap();
        wal::append_tx(&vfs, 0, &tx).unwrap();
    }

    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert!(engine.recovery_report().unwrap().is_pristine());
    assert_eq!(
        graph_identity(engine.graph()),
        graph_identity(&shadow),
        "pinned-generation recovery diverged"
    );
    for (name, q) in VIEWS {
        let id = engine.view_by_name(name).unwrap();
        let plan = compile_query(&parse_query(q).unwrap()).unwrap();
        assert_eq!(
            engine.view(id).unwrap().results(),
            pgq_eval::evaluate_consolidated(&plan.fra, engine.graph()),
            "pinned-generation view {name} diverged from recompute"
        );
    }
    let health = engine.durability_health().unwrap();
    assert_eq!(
        (health.generation, health.wal_records),
        (0, TXS_PER_SCRIPT as u64)
    );

    engine.snapshot().unwrap();
    assert_eq!(disk.file_names(), vec!["snap.1".to_string()]);
    let reopened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert_eq!(graph_identity(reopened.graph()), graph_identity(&shadow));
}

/// The views the DDL script registers and drops: the three standing
/// shapes and two cheap scans.
const DDL_POOL: &[(&str, &str)] = &[
    VIEWS[0],
    VIEWS[1],
    VIEWS[2],
    ("posts", "MATCH (p:Post) RETURN p"),
    ("en_comms", "MATCH (c:Comm) WHERE c.lang = 'en' RETURN c"),
];

/// One acknowledged step of the DDL script.
enum Step {
    Tx(pgq_graph::tx::Transaction),
    Register(usize),
    Drop(usize),
}

/// Run the seeded DDL script against `vfs` at a cadence of five commits:
/// two views up front, then transactions with a registration or a drop
/// of a random pool view between one in three of them. Any engine error
/// fails the test (the fuse model: the engine never sees the cut).
fn run_ddl_script(vfs: MemVfs, seed: u64, threads: usize) -> Vec<Step> {
    let mut engine = GraphEngine::open_durable_with(Arc::new(vfs)).unwrap();
    engine.set_threads(threads);
    engine.set_snapshot_every(5);
    let mut rng = XorShift::new(seed ^ 0xDD1);
    let mut steps = Vec::new();
    let ddl = |engine: &mut GraphEngine, i: usize, steps: &mut Vec<Step>| {
        let (name, q) = DDL_POOL[i];
        match engine.view_by_name(name) {
            Some(id) => {
                engine.drop_view(id).unwrap();
                steps.push(Step::Drop(i));
            }
            None => {
                engine.register_view(name, q).unwrap();
                steps.push(Step::Register(i));
            }
        }
    };
    ddl(&mut engine, 0, &mut steps);
    ddl(&mut engine, 3, &mut steps);
    for _ in 0..TXS_PER_SCRIPT {
        if rng.below(3) == 0 {
            let i = rng.below(DDL_POOL.len());
            ddl(&mut engine, i, &mut steps);
        }
        let tx = random_tx(&mut rng, engine.graph());
        engine.apply(&tx).unwrap();
        steps.push(Step::Tx(tx));
    }
    steps
}

/// The recovered engine's state: graph identity and its views' names
/// and query texts, by name.
fn state_of(engine: &GraphEngine) -> (String, Vec<(String, String)>) {
    let mut views: Vec<(String, String)> = engine
        .views()
        .map(|(id, v)| {
            (
                v.name().to_string(),
                engine.view_query(id).unwrap().to_string(),
            )
        })
        .collect();
    views.sort();
    (graph_identity(engine.graph()), views)
}

#[test]
fn crash_with_view_ddl_recovers_the_catalog_of_a_record_prefix() {
    let iters = env_usize("PGQ_STRESS_ITERS", 2);
    let base_seed = env_usize("PGQ_STRESS_SEED", 0xDD1_CA7A) as u64;
    let threads = env_usize("PGQ_THREADS", 1);
    let plans: Vec<_> = DDL_POOL
        .iter()
        .map(|(_, q)| compile_query(&parse_query(q).unwrap()).unwrap())
        .collect();

    for iter in 0..iters {
        let seed = base_seed
            .wrapping_add(iter as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let ref_disk = MemDisk::new();
        let steps = run_ddl_script(ref_disk.vfs(), seed, threads);
        let total = ref_disk.bytes_attempted();
        let ddl = steps.iter().filter(|s| !matches!(s, Step::Tx(_))).count();
        assert!(
            ddl >= 4,
            "seed={seed:#x}: the script ran only {ddl} DDL steps"
        );

        // The state after every prefix of the script's records.
        let mut shadow = PropertyGraph::new();
        let mut live: Vec<(String, String)> = Vec::new();
        let mut legal = vec![(graph_identity(&shadow), live.clone())];
        for step in &steps {
            match step {
                Step::Tx(tx) => {
                    shadow.apply(tx).unwrap();
                }
                Step::Register(i) => {
                    let (name, q) = DDL_POOL[*i];
                    live.push((name.to_string(), q.to_string()));
                    live.sort();
                }
                Step::Drop(i) => live.retain(|(name, _)| name != DDL_POOL[*i].0),
            }
            legal.push((graph_identity(&shadow), live.clone()));
        }

        let stride = (total / 64).max(1);
        let mut fuses: Vec<u64> = (0..=total).step_by(stride as usize).collect();
        let mut rng = XorShift::new(seed ^ 0xFACE);
        fuses.extend([1, total.saturating_sub(1), total]);
        fuses.extend((0..16).map(|_| rng.next() % (total + 1)));
        fuses.sort_unstable();
        fuses.dedup();

        for &fuse in &fuses {
            let disk = MemDisk::new();
            run_ddl_script(disk.vfs_with_fuse(fuse), seed, threads);
            let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs()))
                .unwrap_or_else(|e| panic!("seed={seed:#x} fuse={fuse}: recovery failed: {e}"));

            // Graph and catalog are those after one record prefix.
            let state = state_of(&recovered);
            assert!(
                legal.contains(&state),
                "seed={seed:#x} fuse={fuse}: recovered state is no record prefix \
                 (views {:?})",
                state.1
            );

            // Every view equals its recompute.
            for (id, view) in recovered.views() {
                let i = DDL_POOL
                    .iter()
                    .position(|(n, _)| *n == view.name())
                    .unwrap();
                assert_eq!(
                    view.results(),
                    pgq_eval::evaluate_consolidated(&plans[i].fra, recovered.graph()),
                    "seed={seed:#x} fuse={fuse}: view {} ({id:?}) diverged from recompute",
                    view.name()
                );
            }

            // Only the surviving views were built: a fresh engine over
            // the same graph that registers just them, in slot order,
            // does the same work and holds the same network.
            let mut fresh = GraphEngine::from_graph(recovered.graph().clone());
            for (id, view) in recovered.views() {
                fresh
                    .register_view(view.name(), recovered.view_query(id).unwrap())
                    .unwrap();
            }
            assert_eq!(
                recovered.network().counters(),
                fresh.network().counters(),
                "seed={seed:#x} fuse={fuse}: recovery built more than the surviving views"
            );
            assert_eq!(
                recovered.network_node_count(),
                fresh.network_node_count(),
                "seed={seed:#x} fuse={fuse}"
            );
        }
        eprintln!(
            "DDL crash sweep iter {iter}: seed={seed:#x} ok ({} fuse points over {total} bytes, \
             {ddl} DDL steps, width {threads})",
            fuses.len()
        );
    }
}
