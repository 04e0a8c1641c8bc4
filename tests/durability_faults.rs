//! Operation-indexed error-injection sweep for the durability layer
//! (CI's `durability-faults` legs).
//!
//! Where `durability_crash.rs` models a silent power cut (the byte
//! fuse), this file models a **live disk that reports failures**: EIO,
//! ENOSPC, short writes, failed fsyncs that also drop the unsynced
//! tail, and torn atomic renames. A reference run counts every
//! mutating disk operation the script attempts; the sweep then re-runs
//! the identical script once per (operation index, fault) pair with
//! that single operation failing, and asserts the graceful-degradation
//! contract:
//!
//! 1. **No panics, no aborts** — every fault surfaces as a typed
//!    `EngineError::Durability` / `EngineError::ReadOnly` or is
//!    absorbed (background folds, best-effort cleanup).
//! 2. **Failed commits roll back** — at most one call (an `apply`, or
//!    an `apply_batch` of several members) is rejected per injected
//!    fault, the engine stays usable, and a restart recovers *exactly*
//!    the acknowledged commits (fsync-always with a one-commit flush
//!    window, so acked ⇒ durable): a rejected batch keeps the members
//!    before a failed append, and none if its one sync failed.
//! 3. **Views stay exact** — the surviving view set is a
//!    registration-order prefix and every view matches a from-scratch
//!    recompute over the recovered graph.
//!
//! Separate tests pin down the failure breaker (repeated failures trip
//! read-only degraded mode; `reset_durability` heals it), the
//! group-commit window across generation switches (a switch syncs the
//! log it closes; no power cut loses more than the window allows), and
//! the bounded-disk guarantee (live files span at most two generations
//! across 50 cadences), the view catalog the folds record (a
//! registration or drop whose catalog record failed never reaches a
//! folded image as it was before the failure, and the log takes the
//! next commit), a fold whose base image was
//! damaged after the engine opened, the ways an `apply_batch`
//! fails (a member's append, the batch's one sync with and without
//! acknowledged commits at risk, a member the store rejects). The fold worker's operations
//! interleave with the appends differently from run to run; nothing
//! here depends on the order.

mod durability_script;

use std::sync::Arc;

use durability_script::{
    env_usize, graph_identity, random_tx, run_script, RunMode, XorShift, VIEWS,
};
use pgq_algebra::pipeline::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_core::{EngineError, GraphEngine};
use pgq_durability::snapshot::{parse_snap_name, snap_file};
use pgq_durability::wal::{self, parse_wal_name};
use pgq_durability::{DurKind, DurOp, Fault, FsyncMode, MemDisk, MemVfs, Snapshot};
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_parser::parse_query;

#[test]
fn every_injected_fault_degrades_gracefully() {
    let iters = env_usize("PGQ_STRESS_ITERS", 2).max(1);
    let base_seed = env_usize("PGQ_STRESS_SEED", 0xFA_177) as u64;
    let threads = env_usize("PGQ_THREADS", 1);
    let compiled: Vec<_> = VIEWS
        .iter()
        .map(|(_, q)| compile_query(&parse_query(q).unwrap()).unwrap())
        .collect();

    for iter in 0..iters {
        let seed = base_seed
            .wrapping_add(iter as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);

        // Reference run: count the mutating disk operations (appends,
        // atomic renames, removes, syncs) the script attempts — the
        // index space the fault sweep fires in.
        let ref_disk = MemDisk::new();
        let _ = run_script(ref_disk.vfs(), seed, threads, RunMode::Faulty);
        let ops = ref_disk.ops_attempted();

        // Sweep every operation index (strided if the script got big)
        // crossed with every fault kind.
        let stride = (ops / 48).max(1);
        let mut points: Vec<u64> = (0..ops).step_by(stride as usize).collect();
        for edge in [0, 1, ops.saturating_sub(1)] {
            if !points.contains(&edge) {
                points.push(edge);
            }
        }

        let mut runs = 0usize;
        for fault in Fault::ALL {
            for &op in &points {
                runs += 1;
                let disk = MemDisk::new();
                let run = run_script(
                    disk.vfs_with_fault(op, fault),
                    seed,
                    threads,
                    RunMode::Faulty,
                );

                // 2. Graceful degradation: one fault rejects at most
                //    one call and never trips the breaker.
                assert!(
                    run.rejected <= 1,
                    "seed={seed:#x} op={op} {fault:?}: {} calls rejected by one fault",
                    run.rejected
                );
                assert!(
                    !run.degraded,
                    "seed={seed:#x} op={op} {fault:?}: single fault tripped degraded mode"
                );

                // Acked ⇒ durable: a restart recovers exactly the
                // acknowledged commits, nothing more, nothing less.
                let mut shadow = PropertyGraph::new();
                for tx in &run.committed {
                    shadow.apply(tx).unwrap();
                }
                let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs()))
                    .unwrap_or_else(|e| {
                        panic!("seed={seed:#x} op={op} {fault:?}: recovery failed: {e}")
                    });
                assert_eq!(
                    graph_identity(recovered.graph()),
                    graph_identity(&shadow),
                    "seed={seed:#x} op={op} {fault:?}: recovered state is not exactly the \
                     acknowledged commits ({} acked, {} rejected)",
                    run.committed.len(),
                    run.rejected,
                );

                // 3. The surviving views are a registration prefix and
                //    every one matches recompute.
                for (i, ((name, _), plan)) in VIEWS.iter().zip(&compiled).enumerate() {
                    let id = recovered.view_by_name(name);
                    assert_eq!(
                        id.is_some(),
                        i < run.registered,
                        "seed={seed:#x} op={op} {fault:?}: view {name} presence diverged \
                         from registration outcome ({} registered)",
                        run.registered,
                    );
                    let Some(id) = id else { continue };
                    assert_eq!(
                        recovered.view(id).unwrap().results(),
                        pgq_eval::evaluate_consolidated(&plan.fra, recovered.graph()),
                        "seed={seed:#x} op={op} {fault:?}: view {name} diverged from recompute"
                    );
                }
            }
        }
        eprintln!(
            "fault sweep iter {iter}: seed={seed:#x} ok ({runs} fault points over {ops} ops, width {threads})"
        );
    }
}

fn one_vertex_tx(tag: i64) -> Transaction {
    let mut tx = Transaction::new();
    tx.create_vertex(
        [Symbol::intern("Post")],
        Properties::from_iter([("tag", Value::Int(tag))]),
    );
    tx
}

#[test]
fn repeated_failures_trip_the_breaker_and_reset_heals_it() {
    let disk = MemDisk::new();
    // Each failed append consumes two ops (the faulted append + the
    // repair rewrite), so three consecutive failures land on ops
    // o, o+2, o+4.
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs_with_faults(vec![
        (2, Fault::Eio),
        (4, Fault::Enospc),
        (6, Fault::Eio),
    ])))
    .unwrap();
    // Appends are the only disk ops, and none of them syncs whatever
    // `PGQ_FSYNC` says.
    engine.set_snapshot_every(0).set_fsync(FsyncMode::Never);
    engine.apply(&one_vertex_tx(0)).unwrap(); // op 0
    engine.apply(&one_vertex_tx(1)).unwrap(); // op 1

    // Three consecutive failed commits: each one is rolled back and
    // reported typed; the third trips the breaker.
    for (i, expect_degraded) in [(2i64, false), (3, false), (4, true)] {
        let err = engine.apply(&one_vertex_tx(i)).unwrap_err();
        assert!(
            matches!(err, EngineError::Durability(_)),
            "failure {i} surfaced as {err:?}"
        );
        assert_eq!(
            engine.is_degraded(),
            expect_degraded,
            "breaker state after failure {i}"
        );
    }
    let health = engine.durability_health().unwrap();
    assert_eq!(health.fail_streak, 3);
    assert!(health.degraded.is_some());

    // Degraded mode: updates are refused with a typed error that names
    // the original failure; reads still work; nothing panics.
    let err = engine.apply(&one_vertex_tx(9)).unwrap_err();
    assert!(matches!(err, EngineError::ReadOnly(_)), "got {err:?}");
    assert_eq!(engine.graph().vertex_count(), 2, "failed commits leaked");

    // Operator fixes the disk (our fault plan is exhausted) and resets:
    // the engine re-baselines via a generation switchover and accepts
    // writes again.
    engine.reset_durability().unwrap();
    assert!(!engine.is_degraded());
    engine.apply(&one_vertex_tx(5)).unwrap();
    drop(engine);

    // A restart sees exactly the acknowledged commits.
    let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert_eq!(recovered.graph().vertex_count(), 3);
    assert!(!recovered.is_degraded());
}

#[test]
fn reset_fails_typed_while_the_disk_is_still_broken() {
    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs_with_faults(vec![
        (1, Fault::Enospc), // the commit append
        (3, Fault::Enospc), // the reset's switchover snapshot
    ])))
    .unwrap();
    // Appends and the reset's image are the only disk ops: no syncs.
    engine.set_snapshot_every(0).set_fsync(FsyncMode::Never);
    engine.set_max_durability_failures(1);
    engine.apply(&one_vertex_tx(0)).unwrap(); // op 0

    let err = engine.apply(&one_vertex_tx(1)).unwrap_err(); // ops 1 (fault) + 2 (repair)
    assert!(matches!(err, EngineError::Durability(_)), "got {err:?}");
    assert!(engine.is_degraded(), "max_failures=1 must trip immediately");

    // The disk is still refusing writes: reset reports it and stays
    // degraded instead of pretending to heal.
    let err = engine.reset_durability().unwrap_err();
    assert!(matches!(err, EngineError::Durability(_)), "got {err:?}");
    assert!(engine.is_degraded());

    // Now the plan is exhausted (disk healthy): reset succeeds.
    engine.reset_durability().unwrap();
    assert!(!engine.is_degraded());
    engine.apply(&one_vertex_tx(2)).unwrap();

    let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert_eq!(recovered.graph().vertex_count(), 2);
}

/// A durable engine under `FsyncMode::Always` with a group-commit window
/// of [`WINDOW`] that switches generations every [`EVERY`] commits — so
/// every switch finds unsynced commits.
const WINDOW: u64 = 4;
const EVERY: u64 = 3;

fn windowed(vfs: MemVfs) -> GraphEngine {
    let mut engine = GraphEngine::open_durable_with(Arc::new(vfs)).unwrap();
    engine
        .set_fsync(FsyncMode::Always)
        .set_flush_window(WINDOW)
        .set_snapshot_every(EVERY);
    engine
}

#[test]
fn a_switch_syncs_the_log_it_closes_and_a_failed_sync_degrades() {
    // With no views, ops 0–2 are the first three commits' appends (none
    // fills the window) and op 3 is the switch's sync of `wal.0`; the
    // fold's operations come after it. Failing that sync drops the three
    // unsynced commits — acknowledged ones — so the engine degrades
    // instead of switching.
    let disk = MemDisk::new();
    let mut engine = windowed(disk.vfs_with_fault(3, Fault::FsyncFail));
    for t in 0..EVERY as i64 {
        engine.apply(&one_vertex_tx(t)).unwrap();
    }
    let health = engine.durability_health().unwrap();
    assert!(engine.is_degraded(), "a failed switch sync must degrade");
    assert_eq!(
        health.last_error.as_ref().map(|e| e.op),
        Some(DurOp::WalSync)
    );
    assert_eq!((health.generation, health.fold_in_flight), (0, false));
    let err = engine.apply(&one_vertex_tx(9)).unwrap_err();
    assert!(matches!(err, EngineError::ReadOnly(_)), "got {err:?}");
    drop(engine);
    // The loss is what the window allows: WINDOW - 1 commits.
    let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert_eq!(recovered.graph().vertex_count(), 0);
}

#[test]
fn a_switch_never_widens_the_group_commit_loss_window() {
    // Every single fault at every operation, and none: after each
    // commit, a power cut recovers a prefix of the acknowledged commits
    // short of at most WINDOW - 1 of them, and never a rejected one —
    // whichever way the folds interleave with the appends.
    const COMMITS: usize = 14;
    const SEED: u64 = 0x0005_17C4;
    let run = |vfs: MemVfs, disk: &MemDisk, what: &str| {
        let mut engine = windowed(vfs);
        let mut rng = XorShift::new(SEED);
        let mut shadow = PropertyGraph::new();
        let mut acked = vec![graph_identity(&shadow)];
        for t in 0..COMMITS {
            let tx = random_tx(&mut rng, engine.graph());
            if engine.apply(&tx).is_ok() {
                shadow.apply(&tx).unwrap();
                acked.push(graph_identity(&shadow));
            }
            let cut = disk.after_power_cut();
            let recovered = GraphEngine::open_durable_with(Arc::new(cut.vfs()))
                .unwrap_or_else(|e| panic!("{what} commit {t}: recovery failed: {e}"));
            let identity = graph_identity(recovered.graph());
            let kept = acked
                .iter()
                .rposition(|a| *a == identity)
                .unwrap_or_else(|| {
                    panic!("{what} commit {t}: the power cut recovered no acknowledged prefix")
                });
            let lost = acked.len() - 1 - kept;
            assert!(
                lost < WINDOW as usize,
                "{what} commit {t}: a power cut lost {lost} acknowledged commits"
            );
        }
        engine.durability_health().unwrap().generation
    };
    let reference = MemDisk::new();
    let switches = run(reference.vfs(), &reference, "no fault");
    assert!(switches >= 4, "only {switches} switches");
    let ops = reference.ops_attempted();
    for fault in Fault::ALL {
        for op in 0..ops {
            let disk = MemDisk::new();
            run(
                disk.vfs_with_fault(op, fault),
                &disk,
                &format!("op {op} {fault:?}"),
            );
        }
    }
}

#[test]
fn disk_stays_bounded_over_long_churn() {
    // 50 cadences of steady churn over a reachable state that stays
    // tiny. Every switch starts a fold that writes the next image and
    // deletes the generation it subsumes, and the next switch joins it
    // first, so whenever this thread looks — before, during or after a
    // fold, however it interleaves with the appends — the live files
    // span at most two consecutive generations: the base image and its
    // closed log, the active log, and the image in flight. That is a
    // few hundred bytes, not the tens of kilobytes the appended history
    // adds up to.
    const CADENCES: usize = 50;
    const EVERY: u64 = 2;
    const BOUND: usize = 1024;

    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.set_snapshot_every(EVERY);
    for i in 0..(CADENCES * EVERY as usize) {
        engine.apply(&one_vertex_tx(i as i64 % 7)).unwrap();
        // Churn, not growth: immediately delete what we added so the
        // reachable state stays tiny while history accumulates.
        let v = {
            let mut ids: Vec<_> = engine.graph().vertex_ids().collect();
            ids.sort_unstable();
            *ids.last().unwrap()
        };
        let mut del = Transaction::new();
        del.delete_vertex(v, true);
        engine.apply(&del).unwrap();
        // One listing: the fold may be deleting while this reads.
        let files = disk.file_names();
        let gens: Vec<u64> = files
            .iter()
            .map(|f| {
                parse_snap_name(f)
                    .or_else(|| parse_wal_name(f))
                    .unwrap_or_else(|| panic!("step {i}: unexpected file {f}"))
            })
            .collect();
        let (lo, hi) = (gens.iter().min().unwrap(), gens.iter().max().unwrap());
        assert!(
            hi - lo <= 1,
            "step {i}: live files span generations {lo}..={hi}: {files:?}"
        );
        let live = disk.total_len();
        assert!(live <= BOUND, "step {i}: {live} bytes live on disk");
    }
    drop(engine);
    // The last fold has landed: one image and the log of the generation
    // it anchors, nothing else.
    let files = disk.file_names();
    assert!(
        files.len() <= 2 && files.iter().any(|f| f.starts_with("snap.")),
        "{files:?}"
    );
    let written = disk.bytes_attempted() as usize;
    assert!(
        written > 8 * BOUND,
        "the run must write many times the bound ({written} bytes) to show anything"
    );
}

const KEPT: (&str, &str) = ("kept", "MATCH (p:Post) RETURN p");
const GONE: (&str, &str) = ("gone", "MATCH (p:Post) WHERE p.tag = 1 RETURN p");

/// The operation index of the first disk operation after `setup` runs
/// on a fresh durable engine: with no commits there is no fold, so the
/// count is the same on every run.
fn ops_after(setup: impl FnOnce(&mut GraphEngine)) -> u64 {
    let disk = MemDisk::new();
    setup(&mut GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap());
    disk.ops_attempted()
}

/// Commit through four cadence switches, checking after every commit
/// that no folded image on `disk` records the view `absent`; then drop
/// the engine (its last fold lands) and check a reopen does not bring
/// the view back.
fn fold_without(mut engine: GraphEngine, disk: &MemDisk, absent: &str) {
    engine.set_snapshot_every(EVERY);
    // Images up to the active generation were written before the folds.
    let first = engine.durability_health().unwrap().generation;
    for t in 0..4 * EVERY as i64 {
        engine.apply(&one_vertex_tx(t)).unwrap();
        for name in disk.file_names() {
            let Some(generation) = parse_snap_name(&name).filter(|&g| g > first) else {
                continue;
            };
            // The fold may delete the image between the listing and the read.
            let Some(image) = Snapshot::load(&disk.vfs(), generation).unwrap() else {
                continue;
            };
            assert!(
                image.views.iter().all(|v| v.name != absent),
                "commit {t}: {name} records `{absent}`"
            );
        }
    }
    let health = engine.durability_health().unwrap();
    assert_eq!(health.fold_failures, 0, "{:?}", health.last_error);
    assert!(
        health.generation >= first + 4,
        "only {} switches",
        health.generation - first
    );
    drop(engine);
    let reopened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert!(
        reopened.view_by_name(absent).is_none(),
        "`{absent}` came back"
    );
    assert!(reopened.view_by_name(KEPT.0).is_some());
}

#[test]
fn a_registration_whose_record_fails_never_reaches_a_folded_image() {
    // The second registration's catalog record is the first operation
    // after the first registration.
    let append = ops_after(|e| {
        e.register_view(KEPT.0, KEPT.1).unwrap();
    });
    let disk = MemDisk::new();
    let vfs = disk.vfs_with_fault(append, Fault::Eio);
    let mut engine = GraphEngine::open_durable_with(Arc::new(vfs)).unwrap();
    engine.register_view(KEPT.0, KEPT.1).unwrap();
    match engine.register_view(GONE.0, GONE.1) {
        Err(EngineError::Durability(e)) => assert_eq!(e.op, DurOp::WalAppend, "{e}"),
        other => panic!("the registration's record must fail: {other:?}"),
    }
    assert!(engine.view_by_name(GONE.0).is_none());
    // The log stays appendable: the next commit lands right after the
    // first registration's record.
    engine.apply(&one_vertex_tx(0)).unwrap();
    let generation = engine.durability_health().unwrap().generation;
    let log = wal::load(&disk.vfs(), generation).unwrap();
    assert!(log.tail.is_clean(), "{:?}", log.tail);
    assert_eq!((log.catalog.len(), log.txs.len()), (1, 1));
    assert!(!engine.is_degraded());
    fold_without(engine, &disk, GONE.0);
}

#[test]
fn a_drop_whose_record_fails_is_gone_after_the_next_fold() {
    let append = ops_after(|e| {
        e.register_view(KEPT.0, KEPT.1).unwrap();
        e.register_view(GONE.0, GONE.1).unwrap();
    });
    let disk = MemDisk::new();
    let vfs = disk.vfs_with_fault(append, Fault::Eio);
    let mut engine = GraphEngine::open_durable_with(Arc::new(vfs)).unwrap();
    engine.register_view(KEPT.0, KEPT.1).unwrap();
    let gone = engine.register_view(GONE.0, GONE.1).unwrap();
    match engine.drop_view(gone) {
        Err(EngineError::Durability(e)) => assert_eq!(e.op, DurOp::WalAppend, "{e}"),
        other => panic!("the drop's record must fail: {other:?}"),
    }
    // Dropped in memory; the log on disk still registers it until a
    // fold writes an image of the catalog without it.
    assert!(engine.view_by_name(GONE.0).is_none());
    fold_without(engine, &disk, GONE.0);
}

/// A durable engine with one standing view over `Post`, no cadence and
/// the given flush policy, and a log of what its subscriber hears.
fn batch_engine(vfs: MemVfs, fsync: FsyncMode) -> (GraphEngine, Arc<std::sync::Mutex<Vec<usize>>>) {
    let mut engine = GraphEngine::open_durable_with(Arc::new(vfs)).unwrap();
    engine.set_snapshot_every(0).set_fsync(fsync);
    let view = engine.register_view(KEPT.0, KEPT.1).unwrap();
    let heard = Arc::new(std::sync::Mutex::new(Vec::new()));
    let h = Arc::clone(&heard);
    engine
        .subscribe(view, move |d| h.lock().unwrap().push(d.inserted.len()))
        .unwrap();
    (engine, heard)
}

fn batch(tags: std::ops::Range<i64>) -> Vec<Transaction> {
    tags.map(one_vertex_tx).collect()
}

#[test]
fn a_batch_member_whose_append_fails_rolls_back_and_the_rest_is_one_pass() {
    let first = ops_after(|e| {
        e.set_snapshot_every(0).set_fsync(FsyncMode::Never);
        e.register_view(KEPT.0, KEPT.1).unwrap();
    });
    let disk = MemDisk::new();
    // The batch's appends are ops first.. in member order: fail the third.
    let vfs = disk.vfs_with_fault(first + 2, Fault::Eio);
    let (mut engine, heard) = batch_engine(vfs, FsyncMode::Never);
    match engine.apply_batch(&batch(0..4)) {
        Err(EngineError::Durability(e)) => assert_eq!(e.op, DurOp::WalAppend, "{e}"),
        other => panic!("the third member's append must fail: {other:?}"),
    }
    assert_eq!(
        engine.graph().vertex_count(),
        2,
        "the failed member rolled back"
    );
    assert_eq!(
        *heard.lock().unwrap(),
        [2],
        "the two members before it are one change"
    );
    assert!(!engine.is_degraded());
    engine.apply(&one_vertex_tx(9)).unwrap();
    drop(engine);
    let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    let g = recovered.graph();
    let mut tags: Vec<_> = g
        .vertex_ids()
        .map(
            |v| match g.vertex(v).unwrap().props.get(Symbol::intern("tag")) {
                Some(Value::Int(t)) => *t,
                other => panic!("untagged vertex: {other:?}"),
            },
        )
        .collect();
    tags.sort_unstable();
    assert_eq!(tags, [0, 1, 9]);
}

#[test]
fn a_batch_whose_one_sync_fails_rolls_back_whole_and_stays_writable() {
    let first = ops_after(|e| {
        e.set_snapshot_every(0).set_fsync(FsyncMode::Always);
        e.register_view(KEPT.0, KEPT.1).unwrap();
    });
    let disk = MemDisk::new();
    // Four appends, then the batch's one sync, which drops them.
    let vfs = disk.vfs_with_fault(first + 4, Fault::FsyncFail);
    let (mut engine, heard) = batch_engine(vfs, FsyncMode::Always);
    match engine.apply_batch(&batch(0..4)) {
        Err(EngineError::Durability(e)) => assert_eq!(e.op, DurOp::WalSync, "{e}"),
        other => panic!("the batch's sync must fail: {other:?}"),
    }
    // Only the batch's own records were unsynced: the whole batch is
    // taken back before anything was published, and the engine takes
    // the next commit.
    assert!(!engine.is_degraded());
    assert_eq!(engine.graph().vertex_count(), 0);
    assert!(
        heard.lock().unwrap().is_empty(),
        "a rolled-back batch notified"
    );
    engine.apply(&one_vertex_tx(9)).unwrap();
    assert_eq!(*heard.lock().unwrap(), [1]);
    drop(engine);
    let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert_eq!(recovered.graph().vertex_count(), 1, "only the later commit");
}

#[test]
fn a_batch_sync_that_covers_acknowledged_commits_rolls_back_and_degrades() {
    let first = ops_after(|e| {
        e.set_snapshot_every(0).set_fsync(FsyncMode::Always);
        e.register_view(KEPT.0, KEPT.1).unwrap();
    });
    let disk = MemDisk::new();
    // Two acknowledged commits inside the window, then a two-member
    // batch that fills it: its sync (after four appends) fails.
    let vfs = disk.vfs_with_fault(first + 4, Fault::FsyncFail);
    let (mut engine, heard) = batch_engine(vfs, FsyncMode::Always);
    engine.set_flush_window(WINDOW);
    engine.apply(&one_vertex_tx(0)).unwrap();
    engine.apply(&one_vertex_tx(1)).unwrap();
    assert_eq!(*heard.lock().unwrap(), [1, 1]);
    match engine.apply_batch(&batch(2..4)) {
        Err(EngineError::Durability(e)) => assert_eq!(e.op, DurOp::WalSync, "{e}"),
        other => panic!("the batch's sync must fail: {other:?}"),
    }
    // The batch never published; the acknowledged commits may be gone
    // from disk, so the engine refuses writes until a reset.
    assert!(engine.is_degraded());
    assert_eq!(engine.graph().vertex_count(), 2);
    assert_eq!(*heard.lock().unwrap(), [1, 1]);
    let err = engine.apply(&one_vertex_tx(9)).unwrap_err();
    assert!(matches!(err, EngineError::ReadOnly(_)), "got {err:?}");
    engine.reset_durability().unwrap();
    drop(engine);
    let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert_eq!(recovered.graph().vertex_count(), 2);
}

#[test]
fn a_batch_that_fails_on_a_member_publishes_only_what_a_power_cut_keeps() {
    let disk = MemDisk::new();
    let (mut engine, heard) = batch_engine(disk.vfs(), FsyncMode::Always);
    let mut missing_edge = Transaction::new();
    missing_edge.delete_edge(pgq_common::ids::EdgeId(1 << 40));
    match engine.apply_batch(&[one_vertex_tx(0), missing_edge]) {
        Err(EngineError::Graph(_)) => {}
        other => panic!("the second member must fail to apply: {other:?}"),
    }
    // The first member is kept and shown ...
    let view = engine.view_by_name(KEPT.0).unwrap();
    let shown = engine.view_results(view).unwrap().len();
    assert_eq!(shown, 1);
    assert_eq!(*heard.lock().unwrap(), [1]);
    // ... so it was synced before it was shown.
    let recovered = GraphEngine::open_durable_with(Arc::new(disk.after_power_cut().vfs())).unwrap();
    assert_eq!(
        graph_identity(recovered.graph()),
        graph_identity(engine.graph())
    );
    let view = recovered.view_by_name(KEPT.0).unwrap();
    assert_eq!(recovered.view_results(view).unwrap().len(), shown);
}

#[test]
fn a_fold_from_a_damaged_base_fails_typed_and_a_snapshot_heals_the_chain() {
    const BEFORE: i64 = 5;
    let disk = MemDisk::new();
    {
        let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
        engine.set_snapshot_every(0);
        for t in 0..BEFORE - 1 {
            engine.apply(&one_vertex_tx(t)).unwrap();
        }
        engine.snapshot().unwrap();
        engine.apply(&one_vertex_tx(BEFORE)).unwrap();
    }
    // A reopened engine keeps no graph for its first fold: that fold
    // decodes `snap.<base>`, which goes bad after recovery read it.
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.set_snapshot_every(EVERY);
    let base = engine.durability_health().unwrap().base_generation;
    let base = base.expect("the engine reopened from an image");
    assert!(disk.corrupt(&snap_file(base), 20, 0x01));

    // Two switches: the second collects the first fold.
    let mut commits = BEFORE;
    for _ in 0..2 * EVERY {
        engine.apply(&one_vertex_tx(commits)).unwrap();
        commits += 1;
    }
    let health = engine.durability_health().unwrap();
    assert_eq!(health.fold_failures, 1);
    let err = health.last_error.expect("the failed fold is reported");
    assert_eq!(
        (err.op, err.kind),
        (DurOp::SnapshotLoad, DurKind::Corrupt),
        "{err}"
    );
    assert_eq!(
        health.base_generation,
        Some(base),
        "a failed fold moved the base"
    );
    assert!(!engine.is_degraded(), "a failed fold degraded the engine");

    // A synchronous snapshot writes the live graph: the chain no longer
    // starts from the damaged image. It collects the second fold, which
    // failed the same way.
    engine.snapshot().unwrap();
    let healed = engine.durability_health().unwrap();
    assert_eq!(healed.fold_failures, 2);
    for _ in 0..2 * EVERY {
        engine.apply(&one_vertex_tx(commits)).unwrap();
        commits += 1;
    }
    let after = engine.durability_health().unwrap();
    assert_eq!(after.fold_failures, 2, "{:?}", after.last_error);
    assert_eq!(after.base_generation, Some(healed.generation + 1));
    assert_eq!(after.snapshots_written, healed.snapshots_written + 1);
    drop(engine);

    let reopened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert!(reopened.recovery_report().unwrap().is_pristine());
    assert_eq!(reopened.graph().vertex_count() as i64, commits);
}
