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
//!    absorbed (cadence snapshots, best-effort cleanup).
//! 2. **Failed commits roll back** — at most one commit is rejected
//!    per injected fault, the engine stays usable, and a restart
//!    recovers *exactly* the acknowledged commits (fsync-always with a
//!    one-commit flush window, so acked ⇒ durable).
//! 3. **Views stay exact** — the surviving view set is a
//!    registration-order prefix and every view matches a from-scratch
//!    recompute over the recovered graph.
//!
//! Separate tests pin down the failure breaker (repeated failures trip
//! read-only degraded mode; `reset_durability` heals it) and the
//! bounded-disk guarantee (compaction keeps live disk O(churn since
//! the last snapshot) across 50 snapshot cadences).

mod durability_script;

use std::sync::Arc;

use durability_script::{env_usize, graph_identity, run_script, RunMode, VIEWS};
use pgq_algebra::pipeline::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_core::{EngineError, GraphEngine};
use pgq_durability::{Fault, MemDisk};
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
                //    one commit and never trips the breaker.
                assert!(
                    run.rejected <= 1,
                    "seed={seed:#x} op={op} {fault:?}: {} commits rejected by one fault",
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
    engine.set_snapshot_every(0); // appends are the only disk ops
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
    engine.set_snapshot_every(0);
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

#[test]
fn disk_stays_bounded_over_long_churn() {
    // 50 snapshot cadences of steady churn over a reachable state that
    // stays tiny. Every snapshot switches generations and deletes the
    // one it subsumes, so the live files are one snapshot plus at most
    // one cadence of log whatever the history: the peak is reached in
    // the first cadences and never exceeded, and it is a few hundred
    // bytes, not the tens of kilobytes the appended history adds up to.
    const CADENCES: usize = 50;
    const EVERY: u64 = 2;
    const BOUND: usize = 1024;

    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.set_snapshot_every(EVERY);
    let mut early_peak = 0usize;
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
        let live = disk.total_len();
        assert!(live <= BOUND, "step {i}: {live} bytes live on disk");
        if i < 5 * EVERY as usize {
            early_peak = early_peak.max(live);
        } else {
            assert!(
                live <= early_peak,
                "step {i}: {live} bytes live exceeds the first cadences' peak {early_peak}"
            );
        }
    }
    let written = disk.bytes_attempted() as usize;
    assert!(
        written > 8 * BOUND,
        "the run must write many times the bound ({written} bytes) to show anything"
    );
}
