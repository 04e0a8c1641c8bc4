//! Recovery planning over a generation-numbered durability directory.
//!
//! A directory holds `snap.<g>` / `wal.<g>` pairs. Generation `g`'s
//! snapshot anchors the replay of `wal.<g>`; compaction switches to
//! generation `g+1` by atomically writing `snap.<g+1>` (which subsumes
//! all of `wal.<g>`) and only *then* deleting `wal.<g>`. A crash at any
//! byte or operation boundary of that switchover therefore leaves one of
//! three shapes on disk, all recoverable:
//!
//! 1. **Before the rename lands** — `snap.<g+1>` absent (or the old
//!    bytes, for a re-snapshot): recover from `snap.<g>` + `wal.<g>`,
//!    exactly as if the switchover never started.
//! 2. **After the rename, before the delete** — both generations
//!    present: recover from `snap.<g+1>`; `wal.<g>` is stale and is
//!    deleted now.
//! 3. **After the delete** — the steady state of generation `g+1`.
//!
//! A **fold in flight** ([`crate::fold`]) is that switchover with the
//! appends already moved to `wal.<g+1>`: a crash before its rename is
//! shape 1 with a longer chain (`snap.<b>`, `wal.<b..=g>`, then the live
//! `wal.<g+1>`), after it shape 2 or 3 — as are the longer chains a
//! failed fold leaves. Nothing below tells a fold from a snapshot.
//!
//! The planner generalizes this to any number of interrupted
//! switchovers and to *damaged* files: a snapshot that fails its
//! checksum is **quarantined** (renamed aside, preserved for forensics)
//! and recovery falls back to the newest older snapshot plus a longer
//! replay chain — or a cold start when none survives. A WAL whose tail
//! is torn is trimmed back to its valid prefix; a WAL generation beyond
//! a broken link in the chain cannot be replayed soundly (its base
//! state is unreachable) and is quarantined rather than guessed at.
//! Nothing in this module panics on disk bytes, and every repair action
//! is recorded in a [`RecoveryReport`] the engine exposes to operators.
//!
//! [`RecoveryPlan::recover`] then rebuilds what the plan reaches: the
//! base image's graph and view catalog, with the chain replayed into
//! both — transactions into the graph, catalog records (view DDL) into
//! the catalog. Views are registered by the engine once, from the
//! catalog that comes out, so a view registered and dropped inside the
//! chain is never built. The chain's catalog records are exactly those
//! the base image does not hold: an image records the engine's catalog
//! at the switch that closed the log below it, and every DDL record
//! after that switch went to a later log.

use pgq_graph::store::PropertyGraph;

use crate::codec::Record;
use crate::error::{DurOp, DurabilityError};
use crate::snapshot::{parse_snap_name, snap_file, Snapshot, SnapshotView};
use crate::vfs::Vfs;
use crate::wal::{self, parse_wal_name, wal_file, WalContents};

/// Suffix appended to files preserved for forensics instead of deleted.
pub(crate) const QUARANTINE_SUFFIX: &str = ".quarantined";

/// What recovery found and did to the directory.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovery started from; `None` means a
    /// cold start (replay of `wal.0` onto an empty graph, or a truly
    /// empty directory).
    pub base_generation: Option<u64>,
    /// Generation whose WAL is active for new appends after recovery.
    pub active_generation: u64,
    /// Files renamed aside with a `.quarantined` suffix (corrupt
    /// snapshots, unreachable WAL generations).
    pub quarantined: Vec<String>,
    /// Torn/corrupt WAL tails trimmed: `(generation, bytes_dropped)`.
    pub trimmed: Vec<(u64, u64)>,
    /// Superseded files deleted (older generations, temp leftovers).
    pub removed_stale: Vec<String>,
    /// The active WAL's damaged tail could not be rewritten; the engine
    /// must not append to it (it would extend garbage) and opens
    /// degraded instead.
    pub tail_repair_failed: bool,
    /// Human-readable notes on best-effort actions that failed.
    pub notes: Vec<String>,
}

impl RecoveryReport {
    /// Did recovery have to repair, quarantine, or skip anything?
    pub fn is_pristine(&self) -> bool {
        self.quarantined.is_empty()
            && self.trimmed.is_empty()
            && !self.tail_repair_failed
            && self.notes.is_empty()
    }
}

/// A committed-prefix-consistent recovery: the snapshot to restore (if
/// any) and the WAL chain to replay onto it, in order.
pub struct RecoveryPlan {
    /// Base snapshot; `None` is a cold start from an empty graph.
    pub snapshot: Option<Snapshot>,
    /// Encoded size of the base snapshot's file (`0` on a cold start) —
    /// the engine's size hint for the next one it writes.
    pub snapshot_bytes: u64,
    /// `(generation, decoded log)` in replay order. The base snapshot's
    /// `wal_records` skip count applies to the **first** entry only
    /// (non-zero only in images from builds that could pin one
    /// generation and count the records a snapshot subsumed; every
    /// snapshot written now anchors an empty log); later generations
    /// replay in full.
    pub replay: Vec<(u64, WalContents)>,
    /// Generation the engine appends to after recovery.
    pub active_generation: u64,
    /// Valid byte length of the active generation's log after tail
    /// repair — the engine's starting `wal_len` mirror.
    pub active_wal_len: u64,
    /// Everything recovery found and did.
    pub report: RecoveryReport,
}

/// Move `name` aside as `<name>.quarantined` (best-effort; failures are
/// noted, never fatal — the in-memory recovery decision already
/// stands).
fn quarantine(vfs: &dyn Vfs, name: &str, report: &mut RecoveryReport) {
    let aside = format!("{name}{QUARANTINE_SUFFIX}");
    let moved = match vfs.read(name) {
        Ok(Some(bytes)) => vfs
            .write_atomic(&aside, &bytes)
            .and_then(|()| vfs.remove(name)),
        Ok(None) => return,
        Err(e) => Err(e),
    };
    match moved {
        Ok(()) => report.quarantined.push(name.to_string()),
        Err(e) => report
            .notes
            .push(format!("failed to quarantine {name}: {e}")),
    }
}

/// Plan recovery for the directory behind `vfs`. Read errors on the
/// directory listing or a WAL file are real I/O failures and surface as
/// typed errors; *corruption* never does — it is quarantined, trimmed,
/// or skipped, and recorded in the report.
pub fn plan(vfs: &dyn Vfs) -> Result<RecoveryPlan, DurabilityError> {
    let names = vfs
        .list()
        .map_err(|e| DurabilityError::io(DurOp::SnapshotLoad, &e))?;
    let mut report = RecoveryReport::default();

    // Sweep temp leftovers from atomic writes that never renamed.
    for name in &names {
        if name.ends_with(".tmp") {
            match vfs.remove(name) {
                Ok(()) => report.removed_stale.push(name.clone()),
                Err(e) => report.notes.push(format!("failed to remove {name}: {e}")),
            }
        }
    }

    let mut snap_gens: Vec<u64> = names.iter().filter_map(|n| parse_snap_name(n)).collect();
    snap_gens.sort_unstable();
    let wal_gens: Vec<u64> = {
        let mut g: Vec<u64> = names.iter().filter_map(|n| parse_wal_name(n)).collect();
        g.sort_unstable();
        g
    };

    // Base: the newest snapshot that actually decodes. Corrupt ones are
    // quarantined and recovery degrades to the previous generation's
    // snapshot (longer replay), or a cold start.
    let mut snapshot = None;
    let mut snapshot_bytes = 0;
    let mut base_gen = None;
    for &g in snap_gens.iter().rev() {
        let bytes = match vfs.read(&snap_file(g)) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => continue,
            Err(e) => return Err(DurabilityError::io(DurOp::SnapshotLoad, &e)),
        };
        match Snapshot::decode(&bytes) {
            Ok(s) => {
                snapshot = Some(s);
                snapshot_bytes = bytes.len() as u64;
                base_gen = Some(g);
                break;
            }
            Err(verdict) => {
                report
                    .notes
                    .push(format!("snapshot generation {g}: {verdict}"));
                quarantine(vfs, &snap_file(g), &mut report);
            }
        }
    }
    report.base_generation = base_gen;

    // Replay chain: wal.<B> .. wal.<T>, where T is the highest
    // generation present anywhere. The chain is only sound while every
    // link is complete — generation g+1's base state is "all of wal.<g>
    // applied" — so it stops at the first absent or damaged mid-chain
    // log, and logs beyond the break are quarantined (their base state
    // is unreachable).
    let base = base_gen.unwrap_or(0);
    let target = wal_gens
        .iter()
        .copied()
        .chain(snap_gens.iter().copied())
        .max()
        .unwrap_or(0)
        .max(base);

    let mut replay = Vec::new();
    let mut active = base;
    let mut active_wal_len = 0;
    let mut broken = false;
    for g in base..=target {
        if broken {
            quarantine(vfs, &wal_file(g), &mut report);
            continue;
        }
        let log = wal::load(vfs, g).map_err(|e| DurabilityError::io(DurOp::WalLoad, &e))?;
        let absent = vfs
            .read(&wal_file(g))
            .map_err(|e| DurabilityError::io(DurOp::WalLoad, &e))?
            .is_none();
        let complete = log.tail.is_clean() && !absent;
        active = g;
        if !log.tail.is_clean() {
            // Trim the torn/corrupt tail so future appends extend a
            // trustworthy prefix.
            let on_disk = vfs
                .read(&wal_file(g))
                .map_err(|e| DurabilityError::io(DurOp::WalLoad, &e))?
                .map(|b| b.len() as u64)
                .unwrap_or(0);
            let dropped = on_disk.saturating_sub(log.valid_len());
            match wal::repair(vfs, g, log.valid_len()) {
                Ok(()) => report.trimmed.push((g, dropped)),
                Err(e) => {
                    report
                        .notes
                        .push(format!("failed to trim wal generation {g}: {e}"));
                    report.tail_repair_failed = true;
                }
            }
        }
        active_wal_len = log.valid_len();
        replay.push((g, log));
        if !complete && g < target {
            // Later generations were cut from this one's *full* log;
            // an incomplete link makes them unreachable.
            broken = true;
        }
    }
    report.active_generation = active;

    // Everything below the base generation is subsumed by the snapshot.
    for &g in snap_gens.iter().filter(|&&g| g < base) {
        let name = snap_file(g);
        match vfs.remove(&name) {
            Ok(()) => report.removed_stale.push(name),
            Err(e) => report.notes.push(format!("failed to remove {name}: {e}")),
        }
    }
    for &g in wal_gens.iter().filter(|&&g| g < base) {
        let name = wal_file(g);
        match vfs.remove(&name) {
            Ok(()) => report.removed_stale.push(name),
            Err(e) => report.notes.push(format!("failed to remove {name}: {e}")),
        }
    }

    Ok(RecoveryPlan {
        snapshot,
        snapshot_bytes,
        replay,
        active_generation: active,
        active_wal_len,
        report,
    })
}

/// What [`RecoveryPlan::recover`] rebuilt: the state after the
/// committed record prefix, and where the log resumes.
pub struct Recovered {
    /// The base image's graph with every replayed transaction applied.
    pub graph: PropertyGraph,
    /// The view catalog in slot order: the base image's, with every
    /// replayed catalog record folded in.
    pub views: Vec<SnapshotView>,
    /// Generation the engine appends to.
    pub active_generation: u64,
    /// Valid byte length of the active generation's log.
    pub active_wal_len: u64,
    /// Records, transactions and catalog records, in the active log.
    pub active_wal_records: u64,
    /// Transactions applied past the base image.
    pub replayed: u64,
    /// Encoded size of the base image (`0` on a cold start).
    pub snapshot_bytes: u64,
    /// Everything recovery found and did, replay's repairs included.
    pub report: RecoveryReport,
}

impl RecoveryPlan {
    /// Rebuild the committed state this plan reaches: restore the base
    /// image's graph and catalog (its dump is freed on the way; the
    /// state sections of images from before snapshots were graph-only
    /// are dropped unread), then replay the chain in order. The base
    /// image's skip count applies to its own generation only.
    ///
    /// A record that passed its checksum and decoded but does not apply
    /// to the state it claims to extend is semantic corruption, treated
    /// like a torn tail: its log is trimmed to the record before it,
    /// later generations are quarantined, and recovery stops at the
    /// committed prefix. A base image whose dump does not restore is a
    /// typed error.
    pub fn recover(self, vfs: &dyn Vfs) -> Result<Recovered, DurabilityError> {
        let mut report = self.report;
        let mut views = Vec::new();
        let (mut graph, skip) = match self.snapshot {
            Some(s) => {
                let graph = s
                    .restore_graph()
                    .map_err(|e| DurabilityError::corrupt(DurOp::SnapshotLoad, e.to_string()))?;
                for v in &s.views {
                    fold_catalog(&mut views, Record::Register(v));
                }
                (graph, s.wal_records as usize)
            }
            None => (PropertyGraph::new(), 0),
        };
        let mut generation = self.active_generation;
        let mut wal_len = self.active_wal_len;
        let mut wal_records = self.replay.last().map_or(0, |(_, l)| l.ends.len() as u64);
        let mut replayed = 0;
        'chain: for (idx, (g, log)) in self.replay.iter().enumerate() {
            let skip_here = if idx == 0 { skip } else { 0 };
            for (j, record) in log.records().enumerate().skip(skip_here) {
                let applied = match record {
                    Record::Tx(tx) => graph.apply(tx).map(|_| replayed += 1),
                    catalog => {
                        fold_catalog(&mut views, catalog);
                        Ok(())
                    }
                };
                let Err(e) = applied else { continue };
                let keep = if j == 0 { 0 } else { log.ends[j - 1] };
                report.notes.push(format!(
                    "wal generation {g} record {j} failed to replay: {e}"
                ));
                match wal::repair(vfs, *g, keep) {
                    Ok(()) => report.trimmed.push((*g, log.valid_len() - keep)),
                    Err(re) => {
                        report
                            .notes
                            .push(format!("failed to trim wal generation {g}: {re}"));
                        report.tail_repair_failed = true;
                    }
                }
                for (later, _) in &self.replay[idx + 1..] {
                    quarantine(vfs, &wal_file(*later), &mut report);
                }
                (generation, wal_len, wal_records) = (*g, keep, j as u64);
                report.active_generation = generation;
                break 'chain;
            }
        }
        Ok(Recovered {
            graph,
            views,
            active_generation: generation,
            active_wal_len: wal_len,
            active_wal_records: wal_records,
            replayed,
            snapshot_bytes: self.snapshot_bytes,
            report,
        })
    }
}

/// Fold one catalog record into `views`, kept in slot order. A
/// registration takes its slot and its name from any view still holding
/// them — one whose drop the engine made in memory but could not log (a
/// failed drop is not undone) — and a drop of a slot no view holds
/// changes nothing. A transaction leaves the catalog as it is.
fn fold_catalog(views: &mut Vec<SnapshotView>, record: Record<'_>) {
    match record {
        Record::Register(v) => {
            views.retain(|w| w.slot != v.slot && w.name != v.name);
            let at = views.partition_point(|w| w.slot < v.slot);
            views.insert(at, v.clone());
        }
        Record::Drop(slot) => views.retain(|w| w.slot != slot),
        Record::Tx(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemDisk;
    use pgq_common::intern::Symbol;
    use pgq_common::value::Value;
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;
    use pgq_graph::tx::Transaction;

    fn sample_tx(i: i64) -> Transaction {
        let mut tx = Transaction::new();
        tx.create_vertex(
            [Symbol::intern("P")],
            Properties::from_iter([("n", Value::Int(i))]),
        );
        tx
    }

    fn graph_with(n: i64) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for i in 0..n {
            g.apply(&sample_tx(i)).unwrap();
        }
        g
    }

    #[test]
    fn empty_directory_is_a_clean_cold_start() {
        let disk = MemDisk::new();
        let plan = plan(&disk.vfs()).unwrap();
        assert!(plan.snapshot.is_none());
        assert_eq!(plan.active_generation, 0);
        assert_eq!(plan.active_wal_len, 0);
        assert!(plan.report.is_pristine());
    }

    #[test]
    fn genesis_wal_only_replays_from_empty() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        wal::append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        wal::append_tx(&vfs, 0, &sample_tx(2)).unwrap();
        let plan = plan(&vfs).unwrap();
        assert!(plan.snapshot.is_none());
        assert_eq!(plan.replay.len(), 1);
        assert_eq!(plan.replay[0].1.txs.len(), 2);
        assert_eq!(plan.active_generation, 0);
        assert!(plan.report.is_pristine());
    }

    #[test]
    fn steady_state_pair_recovers_snapshot_plus_tail() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        Snapshot::capture_graph(&graph_with(3))
            .write(&vfs, 2)
            .unwrap();
        wal::append_tx(&vfs, 2, &sample_tx(99)).unwrap();
        let plan = plan(&vfs).unwrap();
        assert_eq!(plan.report.base_generation, Some(2));
        assert_eq!(plan.snapshot.as_ref().unwrap().vertices.len(), 3);
        assert_eq!(plan.replay.len(), 1);
        assert_eq!(plan.replay[0].0, 2);
        assert_eq!(plan.replay[0].1.txs.len(), 1);
        assert_eq!(plan.active_generation, 2);
    }

    #[test]
    fn interrupted_switchover_both_generations_present() {
        // Crash after snap.3 landed but before wal.2 was deleted.
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        Snapshot::capture_graph(&graph_with(1))
            .write(&vfs, 2)
            .unwrap();
        wal::append_tx(&vfs, 2, &sample_tx(10)).unwrap();
        Snapshot::capture_graph(&graph_with(2))
            .write(&vfs, 3)
            .unwrap();
        let plan = plan(&vfs).unwrap();
        assert_eq!(plan.report.base_generation, Some(3));
        assert_eq!(plan.snapshot.as_ref().unwrap().vertices.len(), 2);
        // The stale pair is cleaned up now.
        assert!(plan.report.removed_stale.iter().any(|n| n == &wal_file(2)));
        assert!(plan.report.removed_stale.iter().any(|n| n == &snap_file(2)));
        assert_eq!(disk.len(&wal_file(2)), None);
        assert_eq!(plan.active_generation, 3);
    }

    #[test]
    fn corrupt_snapshot_quarantines_and_falls_back_a_generation() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        Snapshot::capture_graph(&graph_with(1))
            .write(&vfs, 2)
            .unwrap();
        wal::append_tx(&vfs, 2, &sample_tx(10)).unwrap();
        Snapshot::capture_graph(&graph_with(2))
            .write(&vfs, 3)
            .unwrap();
        disk.corrupt(&snap_file(3), 20, 0xFF);

        let plan = plan(&vfs).unwrap();
        assert_eq!(plan.report.base_generation, Some(2));
        assert_eq!(plan.snapshot.as_ref().unwrap().vertices.len(), 1);
        // The bad snapshot is preserved aside, not deleted.
        assert!(plan.report.quarantined.contains(&snap_file(3)));
        assert!(disk
            .file_names()
            .contains(&format!("{}{QUARANTINE_SUFFIX}", snap_file(3))));
        // Replay covers wal.2 then (absent) wal.3; active ends at the
        // highest reachable generation.
        assert_eq!(plan.replay[0].0, 2);
        assert_eq!(plan.replay[0].1.txs.len(), 1);
    }

    #[test]
    fn all_snapshots_corrupt_degrades_to_cold_start() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        Snapshot::capture_graph(&graph_with(2))
            .write(&vfs, 1)
            .unwrap();
        disk.corrupt(&snap_file(1), 15, 0xFF);
        let plan = plan(&vfs).unwrap();
        assert!(plan.snapshot.is_none());
        assert_eq!(plan.report.base_generation, None);
        assert!(plan.report.quarantined.contains(&snap_file(1)));
    }

    #[test]
    fn torn_active_tail_is_trimmed() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        wal::append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        let keep = disk.len(&wal_file(0)).unwrap();
        wal::append_tx(&vfs, 0, &sample_tx(2)).unwrap();
        disk.truncate(&wal_file(0), keep + 3);

        let plan = plan(&vfs).unwrap();
        assert_eq!(plan.replay[0].1.txs.len(), 1);
        assert_eq!(plan.active_wal_len, keep as u64);
        assert_eq!(disk.len(&wal_file(0)), Some(keep));
        assert_eq!(plan.report.trimmed, vec![(0, 3)]);
        assert!(!plan.report.tail_repair_failed);
    }

    #[test]
    fn wal_beyond_a_broken_link_is_quarantined_not_replayed() {
        // snap.1 is corrupt, so the base falls back to genesis — but
        // wal.0 is gone (deleted at switchover). wal.1's base state is
        // unreachable; replaying it onto an empty graph would fabricate
        // state, so it must be quarantined.
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        Snapshot::capture_graph(&graph_with(2))
            .write(&vfs, 1)
            .unwrap();
        wal::append_tx(&vfs, 1, &sample_tx(10)).unwrap();
        disk.corrupt(&snap_file(1), 18, 0xFF);

        let plan = plan(&vfs).unwrap();
        assert!(plan.snapshot.is_none());
        // Nothing replayable: wal.0 absent breaks the chain at g=0.
        let replayed: usize = plan.replay.iter().map(|(_, l)| l.txs.len()).sum();
        assert_eq!(replayed, 0);
        assert!(plan.report.quarantined.contains(&wal_file(1)));
        assert_eq!(plan.active_generation, 0);
    }

    #[test]
    fn temp_leftovers_are_swept() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        vfs.append("snap.1.tmp", b"half-written").unwrap();
        wal::append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        let plan = plan(&vfs).unwrap();
        assert!(plan
            .report
            .removed_stale
            .contains(&"snap.1.tmp".to_string()));
        assert!(!disk.file_names().contains(&"snap.1.tmp".to_string()));
    }

    #[test]
    fn planning_is_idempotent() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        Snapshot::capture_graph(&graph_with(1))
            .write(&vfs, 2)
            .unwrap();
        wal::append_tx(&vfs, 2, &sample_tx(10)).unwrap();
        Snapshot::capture_graph(&graph_with(2))
            .write(&vfs, 3)
            .unwrap();
        disk.corrupt(&snap_file(3), 20, 0xFF);

        let first = plan(&vfs).unwrap();
        assert!(!first.report.is_pristine());
        let second = plan(&vfs).unwrap();
        // Second pass finds a directory already repaired: nothing new to
        // quarantine or trim, same base, same replayable transactions.
        assert!(second.report.quarantined.is_empty());
        assert!(second.report.trimmed.is_empty());
        assert_eq!(second.report.base_generation, first.report.base_generation);
        let txs = |p: &RecoveryPlan| -> usize { p.replay.iter().map(|(_, l)| l.txs.len()).sum() };
        assert_eq!(txs(&second), txs(&first));
    }

    fn row(slot: u32, name: &str) -> SnapshotView {
        SnapshotView {
            slot,
            name: name.into(),
            query: format!("MATCH (p:{name}) RETURN p"),
            schema_mode: 0,
            plan: true,
            wcoj_mode: 1,
            wcoj_sorted: None,
        }
    }

    fn names(views: &[SnapshotView]) -> Vec<(u32, &str)> {
        views.iter().map(|v| (v.slot, v.name.as_str())).collect()
    }

    #[test]
    fn the_catalog_fold_keeps_slot_order_and_evicts_what_a_registration_takes() {
        let mut views = Vec::new();
        let (a, b) = (row(3, "a"), row(1, "b"));
        fold_catalog(&mut views, Record::Register(&a));
        fold_catalog(&mut views, Record::Register(&b));
        assert_eq!(names(&views), [(1, "b"), (3, "a")]);
        // `a`'s drop never reached the log; a later view took the name.
        let a2 = row(4, "a");
        fold_catalog(&mut views, Record::Register(&a2));
        assert_eq!(names(&views), [(1, "b"), (4, "a")]);
        fold_catalog(&mut views, Record::Drop(9));
        fold_catalog(&mut views, Record::Tx(&sample_tx(0)));
        assert_eq!(names(&views), [(1, "b"), (4, "a")]);
        fold_catalog(&mut views, Record::Drop(1));
        assert_eq!(names(&views), [(4, "a")]);
    }

    #[test]
    fn recover_replays_data_into_the_graph_and_ddl_into_the_catalog() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        let mut image = Snapshot::capture_graph(&graph_with(2));
        image.views = vec![row(0, "kept"), row(1, "dropped")];
        image.write(&vfs, 1).unwrap();
        wal::append(&vfs, 1, Record::Tx(&sample_tx(5))).unwrap();
        wal::append(&vfs, 1, Record::Drop(1)).unwrap();
        wal::append(&vfs, 1, Record::Register(&row(2, "short_lived"))).unwrap();
        wal::append(&vfs, 2, Record::Drop(2)).unwrap();
        wal::append(&vfs, 2, Record::Register(&row(3, "new"))).unwrap();
        wal::append(&vfs, 2, Record::Tx(&sample_tx(6))).unwrap();

        let r = plan(&vfs).unwrap().recover(&vfs).unwrap();
        assert_eq!(r.graph.vertex_count(), 4);
        assert_eq!(names(&r.views), [(0, "kept"), (3, "new")]);
        assert_eq!(r.replayed, 2);
        assert_eq!((r.active_generation, r.active_wal_records), (2, 3));
        assert_eq!(r.active_wal_len, disk.len(&wal_file(2)).unwrap() as u64);
        assert!(r.report.is_pristine());
    }

    #[test]
    fn a_record_that_does_not_apply_trims_the_catalog_records_after_it() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        wal::append(&vfs, 0, Record::Register(&row(0, "a"))).unwrap();
        wal::append(&vfs, 0, Record::Tx(&sample_tx(1))).unwrap();
        let keep = disk.len(&wal_file(0)).unwrap() as u64;
        let mut bad = Transaction::new();
        bad.delete_edge(pgq_common::ids::EdgeId(77));
        wal::append(&vfs, 0, Record::Tx(&bad)).unwrap();
        wal::append(&vfs, 0, Record::Register(&row(1, "b"))).unwrap();

        let r = plan(&vfs).unwrap().recover(&vfs).unwrap();
        assert_eq!(names(&r.views), [(0, "a")]);
        assert_eq!(r.graph.vertex_count(), 1);
        assert_eq!((r.active_wal_len, r.active_wal_records), (keep, 2));
        assert_eq!(disk.len(&wal_file(0)), Some(keep as usize));
        assert_eq!(r.report.trimmed.len(), 1);
    }
}
